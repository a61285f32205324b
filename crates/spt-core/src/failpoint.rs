//! Fail-point fault injection, compiled in only under the `failpoints`
//! cargo feature.
//!
//! A *fail point* is a named site in the pipeline where a test can inject a
//! fault: a panic (exercising the `catch_unwind` isolation boundaries), an
//! error (exercising `Result` plumbing), or a delay (exercising wall-clock
//! budgets). Sites are keyed twice: by a static **site name**
//! (`"pipeline::analysis"`, `"pipeline::emission"`, …) and by a dynamic
//! **key** describing the specific unit of work (for per-loop sites, the
//! `"func_name@header"` pair), so a test can force a fault in *exactly one*
//! loop's analysis and assert every other loop is untouched.
//!
//! Without the feature the [`fail_point!`](crate::fail_point) macro expands
//! to nothing and this module is absent, so production builds carry zero
//! overhead.
//!
//! ```ignore
//! let _guard = spt_core::failpoint::scoped();          // clears on drop
//! spt_core::failpoint::set_keyed(
//!     "pipeline::analysis",
//!     "kernel@bb2",
//!     spt_core::failpoint::Action::panic("injected"),
//! );
//! // ... run the pipeline: the kernel loop degrades, the compile succeeds.
//! ```

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// How a site behaves when its injected fault fires — which action a sweep
/// may arm and what outcome the fault-isolation contract promises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteKind {
    /// The site fires **inside** a `catch_unwind` fault domain: a `Panic`
    /// action is contained, the affected unit degrades (loop left
    /// sequential, daemon request failed) and the compile still succeeds.
    Contained,
    /// The site has an error channel: arm an `Error` action and the fault
    /// surfaces as a clean `Result` (a `PipelineError`, or a degradation
    /// treated like a corrupt cache entry). A `Panic` action at such a site
    /// is *not* guaranteed to be contained — it may unwind out of the
    /// pipeline — so sweeps must arm `Error` here.
    ErrorChannel,
}

/// One registered fail-point site: everything a generic sweep needs to force
/// the site and know what outcome the robustness contract promises.
#[derive(Clone, Copy, Debug)]
pub struct SiteInfo {
    /// The static site name passed to [`crate::fail_point!`] /
    /// [`eval`].
    pub name: &'static str,
    /// Containment contract (which action a sweep should arm).
    pub kind: SiteKind,
    /// Human-readable shape of the dynamic key, for diagnostics.
    pub key_shape: &'static str,
}

/// Every fail-point site compiled into the workspace. Sweeps iterate this
/// instead of hard-coding names; `sites_cover_every_call_site` (below) scans
/// the workspace sources and fails if a `fail_point!`/`eval` call site ever
/// appears that this table does not list.
pub fn sites() -> &'static [SiteInfo] {
    const SITES: &[SiteInfo] = &[
        SiteInfo {
            name: "pipeline::profile",
            kind: SiteKind::ErrorChannel,
            key_shape: "entry function name",
        },
        SiteInfo {
            name: "pipeline::analysis",
            kind: SiteKind::Contained,
            key_shape: "func@header",
        },
        SiteInfo {
            name: "pipeline::svp",
            kind: SiteKind::Contained,
            key_shape: "func@header",
        },
        SiteInfo {
            name: "pipeline::emission",
            kind: SiteKind::Contained,
            key_shape: "func@header",
        },
        SiteInfo {
            name: "pipeline::verify",
            kind: SiteKind::ErrorChannel,
            key_shape: "(unkeyed)",
        },
        SiteInfo {
            name: "serve::request",
            kind: SiteKind::Contained,
            key_shape: "request kind (ping|compile|sim|stats|shutdown)",
        },
        SiteInfo {
            name: "serve::compile",
            kind: SiteKind::Contained,
            key_shape: "entry function name",
        },
    ];
    SITES
}

/// What an armed fail point does when hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Panic with the given message (contained by the pipeline's isolation
    /// boundaries).
    Panic(String),
    /// Surface an error carrying the given message; only meaningful at
    /// sites invoked with an error handler (the three-argument
    /// [`fail_point!`](crate::fail_point) form). At handler-less sites an
    /// `Error` action panics, loudly, so a misconfigured test cannot
    /// silently pass.
    Error(String),
    /// Sleep for the given number of milliseconds, then continue normally
    /// (for deadline-budget tests).
    Delay(u64),
}

impl Action {
    /// Shorthand for [`Action::Panic`].
    pub fn panic(msg: impl Into<String>) -> Self {
        Action::Panic(msg.into())
    }

    /// Shorthand for [`Action::Error`].
    pub fn error(msg: impl Into<String>) -> Self {
        Action::Error(msg.into())
    }

    /// Parses the compact textual form used by test helpers:
    /// `"panic(msg)"`, `"error(msg)"`, `"delay(ms)"`.
    pub fn parse(text: &str) -> Option<Action> {
        let text = text.trim();
        let open = text.find('(')?;
        let close = text.rfind(')')?;
        if close < open {
            return None;
        }
        let body = &text[open + 1..close];
        match &text[..open] {
            "panic" => Some(Action::Panic(body.to_string())),
            "error" => Some(Action::Error(body.to_string())),
            "delay" => body.parse().ok().map(Action::Delay),
            _ => None,
        }
    }
}

/// One armed rule: an action plus an optional key filter.
#[derive(Clone, Debug)]
struct Rule {
    /// `None` matches every hit of the site; `Some(k)` only hits whose
    /// dynamic key equals `k`.
    key: Option<String>,
    action: Action,
}

fn registry() -> MutexGuard<'static, HashMap<String, Vec<Rule>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Vec<Rule>>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        // A panicked holder only ever *read or pushed* rules; the map is
        // never left half-updated, so the poison is safe to ignore.
        .unwrap_or_else(PoisonError::into_inner)
}

/// Arms `site` unconditionally: every hit performs `action`.
pub fn set(site: &str, action: Action) {
    registry()
        .entry(site.to_string())
        .or_default()
        .push(Rule { key: None, action });
}

/// Arms `site` for hits whose dynamic key equals `key` only.
pub fn set_keyed(site: &str, key: &str, action: Action) {
    registry().entry(site.to_string()).or_default().push(Rule {
        key: Some(key.to_string()),
        action,
    });
}

/// Disarms every rule for `site`.
pub fn clear(site: &str) {
    registry().remove(site);
}

/// Disarms everything.
pub fn clear_all() {
    registry().clear();
}

/// Evaluates a hit of `site` with dynamic `key`. Keyed rules take
/// precedence over unkeyed ones; among equals the most recently armed rule
/// wins. Called by the [`fail_point!`](crate::fail_point) macro — tests
/// configure via [`set`]/[`set_keyed`] instead.
pub fn eval(site: &str, key: &str) -> Option<Action> {
    let reg = registry();
    let rules = reg.get(site)?;
    rules
        .iter()
        .rev()
        .find(|r| r.key.as_deref() == Some(key))
        .or_else(|| rules.iter().rev().find(|r| r.key.is_none()))
        .map(|r| r.action.clone())
}

/// RAII guard that clears the whole registry on drop, so a test cannot leak
/// armed fail points into the next one. Tests sharing a process must hold
/// it around the whole injected region (the registry is process-global).
pub struct ScopedClear(());

impl Drop for ScopedClear {
    fn drop(&mut self) {
        clear_all();
    }
}

/// Clears the registry now *and* on drop of the returned guard.
pub fn scoped() -> ScopedClear {
    clear_all();
    ScopedClear(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; this file's tests all touch distinct
    // site names so they can run concurrently.

    #[test]
    fn keyed_rules_take_precedence() {
        set("t::a", Action::panic("any"));
        set_keyed("t::a", "k1", Action::error("one"));
        assert_eq!(eval("t::a", "k1"), Some(Action::error("one")));
        assert_eq!(eval("t::a", "k2"), Some(Action::panic("any")));
        clear("t::a");
        assert_eq!(eval("t::a", "k1"), None);
    }

    #[test]
    fn unarmed_sites_are_silent() {
        assert_eq!(eval("t::never-armed", ""), None);
    }

    /// Walks `dir` recursively collecting `.rs` files, skipping build
    /// output.
    fn rust_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(_) => return,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                rust_sources(&path, out);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }

    /// Collects every site-name string literal following `needle` anywhere
    /// in `text`, tolerating call sites whose name literal sits on the line
    /// after the macro invocation. Occurrences on comment lines are skipped,
    /// as are non-literal names (the macro definition's `$site`).
    fn site_names(text: &str, needle: &str, out: &mut Vec<String>) {
        let mut from = 0;
        while let Some(at) = text[from..].find(needle) {
            let at = from + at;
            from = at + needle.len();
            let line_start = text[..at].rfind('\n').map_or(0, |p| p + 1);
            if text[line_start..at].trim_start().starts_with("//") {
                continue;
            }
            let rest = &text[from..];
            let Some(open) = rest.find('"') else { continue };
            // A literal name must be the first argument: nothing but
            // whitespace between the open paren and the quote.
            if !rest[..open].trim().is_empty() {
                continue;
            }
            let rest = &rest[open + 1..];
            let Some(close) = rest.find('"') else {
                continue;
            };
            let name = &rest[..close];
            if !name.is_empty() {
                out.push(name.to_string());
            }
        }
    }

    /// Every `fail_point!("…")` / `failpoint::eval("…")` call site in the
    /// workspace must be listed in [`sites`] — a new injection point that
    /// forgets to register itself would silently escape the sweep.
    #[test]
    fn sites_cover_every_call_site() {
        let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root");
        let mut files = Vec::new();
        rust_sources(&workspace, &mut files);
        assert!(
            files.len() > 10,
            "workspace scan found too few sources under {}",
            workspace.display()
        );

        let registered: Vec<&str> = sites().iter().map(|s| s.name).collect();
        let mut found = Vec::new();
        for file in &files {
            // This file defines the table itself; its own mentions are not
            // call sites.
            if file.ends_with("spt-core/src/failpoint.rs") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(file) else {
                continue;
            };
            let mut names = Vec::new();
            site_names(&text, "fail_point!(", &mut names);
            site_names(&text, "failpoint::eval(", &mut names);
            for name in names {
                // Test files arm synthetic sites (`t::…`) that are
                // deliberately unregistered.
                if name.starts_with("t::") {
                    continue;
                }
                assert!(
                    registered.contains(&name.as_str()),
                    "fail-point site {name:?} in {} is not listed in \
                     failpoint::sites()",
                    file.display()
                );
                found.push(name);
            }
        }
        // The table must also not rot: every registered site should still
        // exist somewhere in the sources.
        for site in &registered {
            assert!(
                found.iter().any(|f| f == site),
                "failpoint::sites() lists {site:?} but no call site exists \
                 in the workspace"
            );
        }
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(Action::parse("panic(boom)"), Some(Action::panic("boom")));
        assert_eq!(Action::parse("error(e)"), Some(Action::error("e")));
        assert_eq!(Action::parse("delay(25)"), Some(Action::Delay(25)));
        assert_eq!(Action::parse("delay(x)"), None);
        assert_eq!(Action::parse("nonsense"), None);
    }
}
