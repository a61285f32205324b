//! `BENCH_pipeline.json` history: loading and appending.
//!
//! The file is an append-only trajectory — one JSON object per recorded run
//! under a `"history"` array — written and read by `perfbench` and
//! `loadgen` without any JSON library: entries are flat-ish objects whose
//! strings never contain braces, so brace balancing splits them and
//! substring scans extract fields. Every entry carries the `entry`, `rev`,
//! `exec_tier` and `cache_mode` stamps (the checked-in file was migrated to
//! this one schema once; writers stamp every new entry). Entries before the
//! engines collapsed to one executor name the tier they ran on (`dense` or
//! `super`); later ones carry [`ENGINE`].

/// The `exec_tier` stamp of new entries: both engines run one superblock
/// executor.
pub const ENGINE: &str = "superblock";

/// Splits the objects of a JSON array body by brace balancing (entries are
/// flat-ish objects written by this tool family; strings never contain
/// braces).
pub fn split_objects(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, c) in body.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        out.push(body[s..=i].to_string());
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Extracts the numeric value following `"key":` inside `scope`.
pub fn json_field(scope: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let pos = scope.find(&pat)? + pat.len();
    let rest = scope[pos..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the string value following `"key":` inside `scope` (no escape
/// handling — history strings are plain identifiers).
pub fn json_string_field(scope: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let pos = scope.find(&pat)? + pat.len();
    let rest = scope[pos..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// This entry's `entry` index, if stamped.
pub fn entry_index(entry: &str) -> Option<u64> {
    json_field(entry, "entry").map(|v| v as u64)
}

/// Loads the history entries of `path`, ordered by `entry` index. A
/// missing file, or one without a `"history"` array, is an empty history.
pub fn load_history(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Some(pos) = text.find("\"history\"") else {
        return Vec::new();
    };
    let (Some(open), Some(close)) = (text[pos..].find('['), text.rfind(']')) else {
        return Vec::new();
    };
    let mut entries = split_objects(&text[pos + open + 1..close]);
    // Order by stamp, not file position: a hand-edited or merged file must
    // not flip "previous entry" semantics. The sort is stable, so
    // same-index entries keep file order.
    entries.sort_by_key(|e| entry_index(e).unwrap_or(u64::MAX));
    entries
}

/// The index a new entry should carry: one past the largest recorded, which
/// survives gaps and out-of-order files where `len()` would collide.
pub fn next_entry_index(history: &[String]) -> u64 {
    history
        .iter()
        .filter_map(|e| entry_index(e))
        .max()
        .map_or(0, |m| m + 1)
}

/// Writes `entries` back as the canonical `{"history": [...]}` layout.
///
/// # Errors
///
/// Filesystem errors from the write.
pub fn write_history(path: &str, entries: &[String]) -> std::io::Result<()> {
    let mut json = String::from("{\n  \"history\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str("    ");
        json.push_str(e);
        if i + 1 < entries.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json)
}

/// The git revision being measured, or `"unknown"` outside a checkout.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`), or 0
/// where unavailable. Cumulative over the process, so it is reported once.
pub fn peak_rss_kb() -> u64 {
    if cfg!(target_os = "linux") {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository's own checked-in trajectory: every entry carries all
    /// four stamps and the entries are in `entry` order.
    #[test]
    fn checked_in_history_is_stamped_and_ordered() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json");
        let entries = load_history(&path.to_string_lossy());
        assert!(
            entries.len() >= 4,
            "expected the checked-in history, got {} entries",
            entries.len()
        );
        let mut prev = None;
        for e in &entries {
            let idx = entry_index(e).expect("entry stamp");
            if let Some(p) = prev {
                assert!(idx > p, "history not ordered: {idx} after {p}");
            }
            prev = Some(idx);
            for key in ["rev", "exec_tier", "cache_mode"] {
                assert!(
                    json_string_field(e, key).is_some(),
                    "entry {idx} missing {key:?}: {e}"
                );
            }
        }
        assert_eq!(next_entry_index(&entries), prev.unwrap() + 1);
    }

    #[test]
    fn load_orders_by_entry_stamp_not_position() {
        let dir = std::env::temp_dir().join(format!("spt-history-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        std::fs::write(
            &path,
            r#"{
  "history": [
    {"entry": 5, "rev": "e", "exec_tier": "t", "cache_mode": "m"},
    {"entry": 2, "rev": "b", "exec_tier": "t", "cache_mode": "m"},
    {"entry": 3, "rev": "c", "exec_tier": "t", "cache_mode": "m"}
  ]
}
"#,
        )
        .unwrap();
        let entries = load_history(&path.to_string_lossy());
        let idx: Vec<u64> = entries.iter().filter_map(|e| entry_index(e)).collect();
        assert_eq!(idx, vec![2, 3, 5]);
        assert_eq!(next_entry_index(&entries), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("spt-history-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let entries = vec![
            r#"{"entry": 0, "rev": "a", "exec_tier": "t", "cache_mode": "cold", "x": 1}"#
                .to_string(),
            r#"{"entry": 1, "rev": "b", "exec_tier": "t", "cache_mode": "warm", "x": 2}"#
                .to_string(),
        ];
        write_history(&path.to_string_lossy(), &entries).unwrap();
        assert_eq!(load_history(&path.to_string_lossy()), entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_empty_history() {
        assert!(load_history("/nonexistent/spt/history.json").is_empty());
        assert_eq!(next_entry_index(&[]), 0);
    }
}
