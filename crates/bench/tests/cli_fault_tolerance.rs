//! End-to-end fault-tolerance tests against the real `cadapt-bench`
//! binary: golden diagnostics, exit-code mapping, kill-and-resume
//! byte-identity, and fault-suite determinism.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn bench_bin() -> &'static str {
    env!("CARGO_BIN_EXE_cadapt-bench")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cadapt-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_bench(args: &[&str]) -> Output {
    Command::new(bench_bin())
        .args(args)
        .output()
        .expect("cadapt-bench spawns")
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("exited (not signalled)")
}

fn stderr_text(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn record_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("out dir readable")
        .map(|entry| entry.expect("dir entry"))
        .filter(|entry| {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            name.ends_with(".json") && name != "MANIFEST.json"
        })
        .map(|entry| {
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).expect("record readable"),
            )
        })
        .collect();
    files.sort();
    files
}

// ------------------------------------------------------------- S1: check

#[test]
fn check_against_missing_golden_exits_4_and_names_the_cure() {
    let golden_dir = scratch("missing-golden");
    let output = run_bench(&[
        "check",
        "--exp",
        "e1",
        "--quick",
        "--golden",
        golden_dir.to_str().expect("utf8 path"),
    ]);
    assert_eq!(exit_code(&output), 4, "stderr: {}", stderr_text(&output));
    let err = stderr_text(&output);
    assert!(err.contains("golden record for `e1` unusable"), "{err}");
    assert!(err.contains("e1.json"), "{err}");
    assert!(
        err.contains("regenerate with: cadapt-bench run --exp e1"),
        "diagnostic must name the regeneration command: {err}"
    );
    let _ = std::fs::remove_dir_all(&golden_dir);
}

#[test]
fn check_against_malformed_golden_exits_4_with_the_parse_failure() {
    // A truncated record, and brackets nested far past the parser's depth
    // limit: the second must be refused, not overflow the stack.
    let truncated = "{\"schema_version\": ".to_string();
    let deep = "[".repeat(200_000);
    for (tag, text, failure) in [
        ("truncated", truncated, "invalid JSON"),
        ("deep", deep, "nesting deeper than 128 levels"),
    ] {
        let golden_dir = scratch(&format!("malformed-golden-{tag}"));
        std::fs::write(golden_dir.join("e1.json"), text).expect("write stub");
        let output = run_bench(&[
            "check",
            "--exp",
            "e1",
            "--quick",
            "--golden",
            golden_dir.to_str().expect("utf8 path"),
        ]);
        assert_eq!(exit_code(&output), 4, "stderr: {}", stderr_text(&output));
        let err = stderr_text(&output);
        assert!(err.contains("golden record for `e1` unusable"), "{err}");
        assert!(err.contains("e1.json"), "{err}");
        assert!(err.contains(failure), "{err}");
        let _ = std::fs::remove_dir_all(&golden_dir);
    }
}

#[test]
fn check_against_mislabelled_golden_exits_4() {
    // A well-formed record that claims to belong to a different
    // experiment must be refused, not silently compared.
    let golden_dir = scratch("mislabelled-golden");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/e2.json");
    std::fs::copy(committed, golden_dir.join("e1.json")).expect("copy committed golden");
    let output = run_bench(&[
        "check",
        "--exp",
        "e1",
        "--quick",
        "--golden",
        golden_dir.to_str().expect("utf8 path"),
    ]);
    assert_eq!(exit_code(&output), 4, "stderr: {}", stderr_text(&output));
    assert!(
        stderr_text(&output).contains("claims to be a record for \"e2\""),
        "{}",
        stderr_text(&output)
    );
    let _ = std::fs::remove_dir_all(&golden_dir);
}

// ------------------------------------------------------- exit-code contract

#[test]
fn usage_errors_exit_2_with_usage_text() {
    // Retired commands (the job daemon's, the old `perf` suite) and
    // options (the job daemon's fault target, `run --cancel-after`) are
    // refused like any other unknown name.
    let cases: [(&[&str], &str); 6] = [
        (&["run", "--no-such-flag"], "unknown option"),
        (&["run", "--cancel-after", "0"], "unknown option"),
        (
            &[
                "request",
                "--addr",
                "127.0.0.1:1",
                "--line",
                r#"{"op":"health"}"#,
            ],
            "unknown command",
        ),
        (&["serve"], "unknown command"),
        (
            &["faults", "--target", "serve", "--cases", "1"],
            "unknown option",
        ),
        (&["perf", "--quick"], "unknown command"),
    ];
    for (args, expected) in cases {
        let output = run_bench(args);
        let err = stderr_text(&output);
        assert_eq!(exit_code(&output), 2, "{args:?}: {err}");
        assert!(err.contains(expected), "{args:?}: {err}");
        assert!(err.contains("usage: cadapt-bench"), "{args:?}: {err}");
    }
}

#[test]
fn resume_without_out_is_a_usage_error() {
    let output = run_bench(&["run", "--exp", "e1", "--quick", "--resume"]);
    assert_eq!(exit_code(&output), 2);
    assert!(
        stderr_text(&output).contains("--checkpoint-every/--resume need --out"),
        "{}",
        stderr_text(&output)
    );
}

#[test]
fn resume_with_a_different_experiment_set_is_refused() {
    // The manifest fingerprints (scale, ids): resuming under a different
    // plan must be a typed checkpoint error (exit 4), not silent reuse.
    let dir = scratch("fingerprint");
    let dir_arg = dir.to_str().expect("utf8 path");
    let first = run_bench(&[
        "run",
        "--exp",
        "e1",
        "--quick",
        "--out",
        dir_arg,
        "--checkpoint-every",
        "1",
    ]);
    assert_eq!(exit_code(&first), 0, "stderr: {}", stderr_text(&first));
    let second = run_bench(&[
        "run", "--exp", "e1,e2", "--quick", "--out", dir_arg, "--resume",
    ]);
    assert_eq!(exit_code(&second), 4, "stderr: {}", stderr_text(&second));
    assert!(
        stderr_text(&second).contains("checkpoint manifest"),
        "{}",
        stderr_text(&second)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------- kill-and-resume

/// SIGKILL a checkpointed run mid-suite, resume it, and require the final
/// records to be byte-identical to an uninterrupted checkpointed run.
#[test]
fn killed_and_resumed_run_matches_uninterrupted_run_byte_for_byte() {
    const EXPS: &str = "e1,e2,e3,e4";
    let interrupted = scratch("kill-resume");
    let reference = scratch("kill-reference");

    // Reference: the same plan, uninterrupted.
    let full = run_bench(&[
        "run",
        "--exp",
        EXPS,
        "--quick",
        "--threads",
        "1",
        "--out",
        reference.to_str().expect("utf8 path"),
        "--checkpoint-every",
        "1",
    ]);
    assert_eq!(exit_code(&full), 0, "stderr: {}", stderr_text(&full));

    // Victim: spawn, wait for the first record to land, SIGKILL.
    let mut victim = Command::new(bench_bin())
        .args([
            "run",
            "--exp",
            EXPS,
            "--quick",
            "--threads",
            "1",
            "--out",
            interrupted.to_str().expect("utf8 path"),
            "--checkpoint-every",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("victim spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if !record_files(&interrupted).is_empty() {
            break;
        }
        if victim.try_wait().expect("poll victim").is_some() || Instant::now() > deadline {
            break; // finished before we could kill it — resume still must work
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = victim.kill(); // SIGKILL on unix
    let _ = victim.wait();
    let survivors = record_files(&interrupted).len();
    assert!(
        survivors <= 4,
        "at most the four planned records can exist, found {survivors}"
    );

    // Resume and compare.
    let resumed = run_bench(&[
        "run",
        "--exp",
        EXPS,
        "--quick",
        "--threads",
        "1",
        "--out",
        interrupted.to_str().expect("utf8 path"),
        "--resume",
    ]);
    assert_eq!(exit_code(&resumed), 0, "stderr: {}", stderr_text(&resumed));
    let got = record_files(&interrupted);
    let want = record_files(&reference);
    assert_eq!(
        got.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        ["e1.json", "e2.json", "e3.json", "e4.json"]
    );
    for ((name_got, bytes_got), (name_want, bytes_want)) in got.iter().zip(&want) {
        assert_eq!(name_got, name_want);
        assert_eq!(
            bytes_got, bytes_want,
            "{name_got}: resumed record differs from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(&interrupted);
    let _ = std::fs::remove_dir_all(&reference);
}

// ------------------------------------------------------ fault determinism

#[test]
fn fault_suite_report_is_a_pure_function_of_the_seed() {
    let dir = scratch("faults-determinism");
    let first = dir.join("first.json");
    let second = dir.join("second.json");
    for path in [&first, &second] {
        let output = run_bench(&[
            "faults",
            "--seed",
            "11",
            "--cases",
            "6",
            "--out",
            path.to_str().expect("utf8 path"),
        ]);
        assert_eq!(exit_code(&output), 0, "stderr: {}", stderr_text(&output));
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(stdout.contains("0 silent corruptions"), "{stdout}");
    }
    let a = std::fs::read(&first).expect("first report");
    let b = std::fs::read(&second).expect("second report");
    assert_eq!(
        a, b,
        "fault reports for the same seed must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
