//! Integration tests for the `sptc` command-line driver.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A private working directory holding the demo program. `sptc` runs
/// inside it, so the `.spt-cache/` artifact store it uses by default lands
/// there, never in the repository; the directory is removed on drop.
struct Demo {
    dir: PathBuf,
    path: PathBuf,
}

impl Demo {
    fn new() -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spt-cli-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("demo.mc");
        std::fs::write(
            &path,
            "global a[256]: int;
             fn main(n: int) -> int {
                 let s = 0;
                 for (let i = 0; i < n; i = i + 1) {
                     let x = (i * 131 + 7) % 256;
                     a[x] = x % 31;
                     s = s + (x * x) % 17 + a[(x + 3) % 256] % 5;
                 }
                 return s;
             }
",
        )
        .expect("write demo");
        Demo { dir, path }
    }

    /// `sptc` with the demo directory as its working directory.
    fn sptc(&self) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sptc"));
        cmd.current_dir(&self.dir);
        cmd
    }

    /// The kind prefixes (`compile`, `func`, `sim`) of the store's files.
    fn store_kinds(&self) -> BTreeSet<String> {
        std::fs::read_dir(self.dir.join(".spt-cache"))
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| {
                        let name = e.file_name().to_string_lossy().into_owned();
                        name.split_once('-').map(|(kind, _)| kind.to_string())
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl Drop for Demo {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn ir_prints_ssa() {
    let demo = Demo::new();
    let out = demo
        .sptc()
        .args(["ir"])
        .arg(&demo.path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fn main(n: i64) -> i64"));
    assert!(text.contains("phi"), "SSA form expected:\n{text}");
}

#[test]
fn run_executes_program() {
    let demo = Demo::new();
    let out = demo
        .sptc()
        .args(["run"])
        .arg(&demo.path)
        .args(["--arg", "10"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let val: i64 = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("integer output");
    // Reference value computed independently.
    let mut a = [0i64; 256];
    let mut s = 0i64;
    for i in 0..10i64 {
        let x = (i * 131 + 7) % 256;
        a[x as usize] = x % 31;
        s += (x * x) % 17 + a[((x + 3) % 256) as usize] % 5;
    }
    assert_eq!(val, s);
}

#[test]
fn analyze_reports_loops() {
    let demo = Demo::new();
    let out = demo
        .sptc()
        .args(["analyze"])
        .arg(&demo.path)
        .args(["--arg", "300"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("valid-partition"), "{text}");
    assert!(text.contains("selected 1 loop"), "{text}");
}

#[test]
fn sim_shows_speedup_and_matching_results() {
    let demo = Demo::new();
    let out = demo
        .sptc()
        .args(["sim"])
        .arg(&demo.path)
        .args(["--arg", "1500", "--train", "300"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("speedup"), "{text}");
    assert!(text.contains("loop #1"), "{text}");
}

#[test]
fn compile_emits_fork_markers() {
    let demo = Demo::new();
    let out = demo
        .sptc()
        .args(["compile"])
        .arg(&demo.path)
        .args(["--arg", "300"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("spt_fork"), "{text}");
    assert!(text.contains("spt_kill"), "{text}");
}

#[test]
fn sim_twice_in_one_directory_is_served_from_the_store_unchanged() {
    let demo = Demo::new();
    let sim = || {
        let out = demo
            .sptc()
            .args(["sim"])
            .arg(&demo.path)
            .args(["--arg", "1500", "--train", "300"])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let cold = sim();
    let kinds = demo.store_kinds();
    assert!(
        kinds.contains("compile") && kinds.contains("sim"),
        "the first run stored no compile or sim memo: {kinds:?}"
    );
    assert_eq!(sim(), cold, "the store changed sptc sim's output");
}

/// `sptc --daemon SOCKET sim` renders the daemon's reply through the same
/// `print_sim` as a local run: its stdout is byte-identical, whether the
/// daemon computes the answer or serves it from memory.
#[test]
fn daemon_sim_prints_exactly_what_local_sim_prints() {
    let demo = Demo::new();
    let service = spt::serve::CompileService::new(spt::serve::ServiceConfig {
        cache_dir: Some(demo.dir.join("daemon-cache")),
        ..spt::serve::ServiceConfig::default()
    });
    let socket = demo.dir.join("sptd.sock");
    let handle = spt::serve::serve(Arc::new(service), &socket, 1).expect("daemon starts");
    let sim = |daemon: bool| {
        let mut cmd = demo.sptc();
        cmd.args(["sim"])
            .arg(&demo.path)
            .args(["--arg", "1500", "--train", "300"]);
        if daemon {
            cmd.arg("--daemon").arg(&socket);
        }
        let out = cmd.output().expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let local = sim(false);
    assert!(local.contains("loop #1"), "{local}");
    assert_eq!(sim(true), local, "a daemon-computed sim");
    assert_eq!(sim(true), local, "a daemon sim served from memory");
    handle.shutdown_and_join();
}

#[test]
fn bad_usage_exits_nonzero() {
    let demo = Demo::new();
    let out = demo.sptc().output().expect("runs");
    assert!(!out.status.success());
    let out = demo
        .sptc()
        .args(["bogus", "/nonexistent.mc"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

#[test]
fn basic_config_flag_accepted() {
    let demo = Demo::new();
    let out = demo
        .sptc()
        .args(["analyze"])
        .arg(&demo.path)
        .args(["--config", "basic", "--arg", "200"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `sptc stats --daemon SOCKET` prints the daemon's counters, and `sptc
/// shutdown --daemon SOCKET` stops it: the server's `join` returns and the
/// socket file is gone.
#[test]
fn daemon_stats_and_shutdown_commands_reach_the_daemon() {
    let demo = Demo::new();
    let service = spt::serve::CompileService::new(spt::serve::ServiceConfig {
        cache_dir: None,
        ..spt::serve::ServiceConfig::default()
    });
    let socket = demo.dir.join("sptd.sock");
    let handle = spt::serve::serve(Arc::new(service), &socket, 1).expect("daemon starts");
    let control = |command: &str| {
        let out = demo
            .sptc()
            .args([command, "--daemon"])
            .arg(&socket)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "sptc {command}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let stats = control("stats");
    assert!(
        stats.lines().any(|l| l.starts_with("requests_total ")),
        "{stats}"
    );
    control("shutdown");
    handle.join();
    assert!(!socket.exists(), "the daemon left its socket file behind");
}
