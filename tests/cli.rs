//! The `dibella` binary's configuration edge: bad flags and bad knob
//! values end the run with exit status 1 and an `error:` line naming the
//! flag or variable, never a panic (exit status 101). The run summary
//! calls exchange time "modeled" only when a simulated network made it.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A tiny FASTQ of overlapping slices of one pseudo-random genome.
fn fastq(name: &str) -> PathBuf {
    let mut state = 0x0C11_u64;
    let genome: Vec<u8> = (0..2_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b"ACGT"[(state % 4) as usize]
        })
        .collect();
    let mut text = String::new();
    for i in 0..10 {
        let seq = std::str::from_utf8(&genome[i * 150..][..500]).unwrap();
        text += &format!("@r{i}\n{seq}\n+\n{}\n", "I".repeat(seq.len()));
    }
    let path =
        std::env::temp_dir().join(format!("dibella-cli-{}-{name}.fastq", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn overlap(args: &[&str], env: &[(&str, &str)], name: &str) -> Output {
    let reads = fastq(name);
    let out = Command::new(env!("CARGO_BIN_EXE_dibella"))
        .arg("overlap")
        .arg(&reads)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("run dibella");
    std::fs::remove_file(reads).ok();
    out
}

#[test]
fn bad_configuration_exits_1_with_an_error_line() {
    // (flags, environment, the knob the error must name)
    let cases = [
        ("-k 40", None, "-k"),
        ("-p 0", None, "-p"),
        ("--bogus 1", None, "--bogus"),
        ("", Some(("DIBELLA_SEED_MODE", "foo")), "DIBELLA_SEED_MODE"),
    ];
    for (i, (args, env, knob)) in cases.into_iter().enumerate() {
        let args: Vec<&str> = args.split_whitespace().collect();
        let env: Vec<(&str, &str)> = env.into_iter().collect();
        let out = overlap(&args, &env, &format!("bad{i}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} {env:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error: ") && l.contains(knob)),
            "{args:?} {env:?}: no error line naming {knob}: {stderr}"
        );
    }
}

#[test]
fn flags_and_env_knobs_reach_the_run() {
    let out = overlap(
        &["-k", "15", "-p", "2", "--seed-mode", "minimizer"],
        &[("DIBELLA_THREADS", "2"), ("DIBELLA_SEED_MODE", "reliable")],
        "good",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    // The flag beats the env variable; the env variable beats the default.
    assert!(
        stderr.contains("k=15") && stderr.contains("seeds minimizer"),
        "{stderr}"
    );
    assert!(stderr.contains("2 ranks x 2 thread(s)"), "{stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).is_empty(),
        "no PAF records"
    );
}

#[test]
fn checkpoint_dir_that_is_a_file_exits_1() {
    let file = std::env::temp_dir().join(format!("dibella-cli-{}-ckpt-file", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let out = overlap(&["-p", "2", "--checkpoint-dir", file.to_str().unwrap()], &[], "ckpt");
    std::fs::remove_file(&file).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error: ") && l.contains("--checkpoint-dir")),
        "no error line naming --checkpoint-dir: {stderr}"
    );
}

#[test]
fn modeled_exchange_is_reported_only_on_simulated_networks() {
    // (transport, whether its exchange time is modeled rather than measured)
    let cases = [
        ("shared", false),
        ("faulty:shared", false),
        ("sim:cori:2", true),
        ("faulty:sim:cori:2", true),
    ];
    for (transport, modeled) in cases {
        let out = overlap(&["-p", "2", "--transport", transport], &[], transport);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{transport}: {stderr}");
        assert_eq!(
            stderr.contains("modeled exchange on"),
            modeled,
            "{transport}: {stderr}"
        );
    }
}
