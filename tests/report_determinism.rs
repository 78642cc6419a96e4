//! Every field of a run's report that is not read off the host clock is a
//! pure function of the input and the configuration: two identical runs
//! must agree on all of them, on every transport and at any round cap.
//! Under `SimNet` the exchange time is modeled from the byte and message
//! counters alone, so it must agree too — a host-time leak into the
//! "modeled" clock fails here first.

use dibella::pipeline::RankReport;
use dibella::prelude::*;
use std::time::Duration;

/// Overlapping reads off one deterministic pseudo-random genome.
fn dataset(n: usize, read_len: usize, stride: usize, seed: u64) -> ReadSet {
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let genome: Vec<u8> = (0..(n * stride + read_len))
        .map(|_| b"ACGT"[(rnd() % 4) as usize])
        .collect();
    (0..n as u32)
        .map(|i| {
            let s = i as usize * stride;
            Read::new(i, format!("r{i}"), genome[s..s + read_len].to_vec())
        })
        .collect()
}

/// `r` with every host-clock field zeroed. `modeled_exchange` keeps
/// `exchange_wall`, which a simulated network derives from the counters.
fn logical(r: &RankReport, modeled_exchange: bool) -> RankReport {
    let mut r = r.clone();
    for s in &mut r.stages {
        s.wall = Duration::ZERO;
        s.comm.pack_wall = Duration::ZERO;
        s.comm.retry_wall = Duration::ZERO;
        if !modeled_exchange {
            s.comm.exchange_wall = Duration::ZERO;
        }
    }
    r
}

#[test]
fn reports_are_deterministic_apart_from_host_clocks() {
    let reads = dataset(40, 1000, 200, 3);
    let sim = |platform| {
        TransportKind::SimNet(SimNetConfig {
            platform,
            ranks_per_node: 2,
        })
    };
    let transports = [
        TransportKind::SharedMem,
        sim(PlatformId::CoriXC40),
        sim(PlatformId::Aws),
    ];
    for transport in transports {
        let modeled = matches!(transport, TransportKind::SimNet(_));
        // Unbounded, and ~10 kB rounds: several pre-packed rounds per pass.
        for cap in [usize::MAX, 10_000] {
            let cfg = PipelineConfig {
                k: 11,
                seed_policy: SeedPolicy::MinDistance(11),
                max_seeds_per_pair: 32,
                max_multiplicity: Some(24),
                max_exchange_bytes_per_round: cap,
                transport,
                ..Default::default()
            };
            let first = run_pipeline(&reads, 4, &cfg);
            let second = run_pipeline(&reads, 4, &cfg);
            let at = format!("transport {transport}, cap {cap}");
            assert!(!first.alignments.is_empty(), "{at}: dead workload");
            assert_eq!(first.alignments, second.alignments, "{at}");
            for (a, b) in first.reports.iter().zip(&second.reports) {
                if cap != usize::MAX {
                    assert!(
                        a.bloom.rounds >= 2 && a.hash.rounds >= 2,
                        "{at}: single round"
                    );
                }
                if modeled {
                    assert!(a.total_exchange() > Duration::ZERO, "{at}: no modeled time");
                }
                assert_eq!(
                    logical(a, modeled),
                    logical(b, modeled),
                    "{at}, rank {}",
                    a.rank
                );
            }
        }
    }
}
