//! One measured pipeline run per process.
//!
//! ```text
//! perfbench --workload <clr30|hifi20|hifi20-sketch> --seed <n>
//!           [--traced [--trace-out <file.json>]]
//! ```
//!
//! The process generates the workload from the seed, writes it as FASTQ
//! bytes, and then times exactly what a user of the CLI waits for:
//! `read_fastq` followed by `run_pipeline` at 2 ranks × 1 thread. It
//! prints one JSON object with the run's measurements, its output digest
//! and its correctness inputs (recall, fault counters). `--traced` runs
//! the span-recording replica instead (see `trace.rs`) and adds the
//! per-layer metrics; `--trace-out` also writes the spans as a Chrome
//! trace and times the alignment kernel alone on the run's own tasks.
//! `run.py` drives the runs and checks the results.

mod trace;
mod workload;

use dibella_comm::CommStats;
use dibella_core::{run_pipeline, AlignmentRecord, PipelineConfig};
use dibella_io::{read_fastq, write_fastq};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use trace::{TracedRun, STAGES};
use workload::{Workload, RANKS};

/// Recall counts true overlaps of at least this many bases.
const RECALL_MIN_OVERLAP: usize = 2_000;

struct Args {
    workload: Workload,
    seed: u64,
    traced: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut traced, mut trace_out) = (None, None, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--trace-out" => trace_out = Some(value()?),
            "--traced" => traced = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        traced,
        trace_out,
    })
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) so it covers only what
/// follows. Where `/proc/self/clear_refs` is not writable the peak covers
/// the whole process, input generation included.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over every field of the sorted alignment set.
fn digest(alignments: &[AlignmentRecord]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for a in alignments {
        for v in [
            a.pair.a as u64,
            a.pair.b as u64,
            a.reverse as u64,
            a.score as i64 as u64,
        ]
        .into_iter()
        .chain([a.a_start, a.a_end, a.b_start, a.b_end].map(u64::from))
        .chain([a.cells])
        {
            eat(v);
        }
    }
    format!("{h:016x}")
}

/// Fraction of `truth` pairs that appear as an aligned pair.
fn recall(alignments: &[AlignmentRecord], truth: &[(u32, u32)]) -> f64 {
    let found: HashSet<(u32, u32)> = alignments.iter().map(|a| (a.pair.a, a.pair.b)).collect();
    truth.iter().filter(|p| found.contains(p)).count() as f64 / truth.len().max(1) as f64
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced run (names as in BENCHMARK.json).
fn layer_metrics(
    run: &TracedRun,
    alignments: &[AlignmentRecord],
    fastq_bytes: usize,
    true_pairs: &HashSet<(u32, u32)>,
) -> Vec<(String, f64)> {
    let r = &run.ranks;
    let max = |f: &dyn Fn(&trace::RankTrace) -> f64| r.iter().map(f).fold(0.0, f64::max);
    let sum = |f: &dyn Fn(&trace::RankTrace) -> f64| r.iter().map(f).sum::<f64>();
    let main_secs = |name: &str| {
        run.main
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .sum::<f64>()
    };

    let parse_s = main_secs("read_fastq") + main_secs("partition_reads");
    let kcount_s = max(&|t| t.stage_secs(0));
    let bloom_frac = ratio(
        sum(&|t| t.call_secs("bloom_stage_overlapping")),
        sum(&|t| t.stage_secs(0)),
    );
    let kmers = sum(&|t| (t.bloom.kmers_parsed + t.hash.kmers_parsed) as f64);
    let overlap_s = max(&|t| t.call_secs("overlap_stage_with_lengths"));
    let seed_records = sum(&|t| t.overlap.pairs_emitted as f64);
    let wire_records = sum(&|t| t.overlap.candidate_pairs_emitted as f64);
    let tasks = sum(&|t| t.tasks.len() as f64);
    let dp_cells = sum(&|t| t.align.dp_cells as f64);
    let false_cells: f64 = alignments
        .iter()
        .filter(|a| !true_pairs.contains(&(a.pair.a, a.pair.b)))
        .map(|a| a.cells as f64)
        .sum();
    let true_tasks = sum(&|t| {
        t.tasks
            .iter()
            .filter(|k| true_pairs.contains(&(k.pair.a, k.pair.b)))
            .count() as f64
    });

    let mut m: Vec<(String, f64)> = vec![
        ("io.parse_s".into(), parse_s),
        (
            "io.parse_mb_per_s".into(),
            ratio(fastq_bytes as f64 / 1e6, parse_s),
        ),
        ("kcount.s".into(), kcount_s),
        ("kcount.bloom_frac".into(), bloom_frac),
        ("kcount.kmers".into(), kmers),
        ("kcount.kmers_per_s".into(), ratio(kmers, kcount_s)),
        (
            "kcount.reliable_frac".into(),
            ratio(
                sum(&|t| t.filter.retained as f64),
                sum(&|t| t.table_keys as f64),
            ),
        ),
        ("kcount.table_bytes".into(), sum(&|t| t.table_bytes as f64)),
        ("overlap.s".into(), overlap_s),
        ("overlap.seed_records".into(), seed_records),
        ("overlap.wire_records".into(), wire_records),
        (
            "overlap.dedup_factor".into(),
            ratio(seed_records, wire_records),
        ),
        ("overlap.tasks".into(), tasks),
        (
            "overlap.tasks_per_wire_record".into(),
            ratio(tasks, wire_records),
        ),
        (
            "overlap.records_per_s".into(),
            ratio(seed_records, overlap_s),
        ),
        (
            "align.fetch_s".into(),
            max(&|t| t.call_secs("fetch_remote_reads")),
        ),
        (
            "align.compute_s".into(),
            max(&|t| t.call_secs("align_tasks")),
        ),
        ("align.dp_cells".into(), dp_cells),
        (
            "align.cells_per_s".into(),
            ratio(dp_cells, sum(&|t| t.call_secs("align_tasks"))),
        ),
        ("align.cells_per_task".into(), ratio(dp_cells, tasks)),
        (
            "align.accept_frac".into(),
            ratio(
                sum(&|t| t.align.accepted as f64),
                sum(&|t| t.align.alignments as f64),
            ),
        ),
        ("align.true_pair_frac".into(), ratio(true_tasks, tasks)),
        (
            "align.false_pair_cells_frac".into(),
            ratio(false_cells, dp_cells),
        ),
    ];
    for (s, name) in STAGES.iter().enumerate() {
        m.push((
            format!("comm.{name}.bytes"),
            sum(&|t| t.comm[s].total_bytes() as f64),
        ));
        m.push((
            format!("comm.{name}.rounds"),
            max(&|t| t.comm[s].alltoallv_calls as f64),
        ));
        m.push((
            format!("comm.{name}.exchange_wait_s"),
            max(&|t| t.comm[s].exchange_wall.as_secs_f64()),
        ));
        m.push((
            format!("comm.{name}.pack_s"),
            max(&|t| t.comm[s].pack_wall.as_secs_f64()),
        ));
    }
    m.push((
        "comm.peak_round_bytes".into(),
        max(&|t| t.comm.iter().map(|c| c.peak_round_bytes).max().unwrap_or(0) as f64),
    ));
    m.push((
        "comm.msgs".into(),
        sum(&|t| t.comm.iter().map(|c| c.total_msgs()).sum::<u64>() as f64),
    ));
    m.push((
        "comm.retransmits".into(),
        sum(&|t| t.comm.iter().map(|c| c.frames_retransmitted).sum::<u64>() as f64),
    ));
    let wall = run.wall.as_secs_f64();
    for (s, name) in STAGES.iter().enumerate() {
        let slowest = max(&|t| t.stage_secs(s));
        let mean = sum(&|t| t.stage_secs(s)) / r.len() as f64;
        m.push((format!("core.{name}.imbalance"), ratio(slowest, mean)));
        m.push((format!("core.{name}.share"), ratio(slowest, wall)));
    }
    m
}

/// What every run reports, traced or not.
struct Measured {
    wall: Duration,
    alignments: Vec<AlignmentRecord>,
    /// Per rank, seconds spent in each stage group of [`STAGES`].
    rank_stage_s: Vec<[f64; 3]>,
    /// Every stage's traffic snapshot on every rank.
    comm: Vec<CommStats>,
}

/// FASTQ bytes to the sorted alignment set, as the CLI runs it.
fn untraced_run(fastq: &[u8], cfg: &PipelineConfig) -> Measured {
    let t = Instant::now();
    let reads = read_fastq(fastq, 0).expect("generated FASTQ parses");
    let res = run_pipeline(&reads, RANKS, cfg);
    let wall = t.elapsed();
    let rank_stage_s = res
        .reports
        .iter()
        .map(|r| {
            let [bloom, hash, overlap, align] = r.stage_timings().map(|t| t.total.as_secs_f64());
            [bloom + hash, overlap, align]
        })
        .collect();
    let comm = res
        .reports
        .iter()
        .flat_map(|r| r.stage_comms().map(CommStats::clone))
        .collect();
    Measured {
        wall,
        alignments: res.alignments,
        rank_stage_s,
        comm,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <clr30|hifi20|hifi20-sketch> --seed <n> [--traced [--trace-out <file>]]");
            std::process::exit(2);
        }
    };
    let cfg = args.workload.config();
    let ds = args.workload.dataset(args.seed);
    let truth = ds.true_overlaps(RECALL_MIN_OVERLAP);
    let mut fastq = Vec::new();
    write_fastq(&mut fastq, &ds.reads).expect("writing FASTQ to memory cannot fail");
    let input_bases = ds.reads.total_bases();
    let true_pairs: HashSet<(u32, u32)> = if args.traced {
        ds.true_overlaps(1).into_iter().collect()
    } else {
        HashSet::new()
    };
    drop(ds);

    reset_peak_rss();
    let (m, traced) = if args.traced {
        let mut run = trace::traced_run(&fastq, RANKS, &cfg);
        let m = Measured {
            wall: run.wall,
            alignments: std::mem::take(&mut run.alignments),
            rank_stage_s: run
                .ranks
                .iter()
                .map(|t| [0, 1, 2].map(|s| t.stage_secs(s)))
                .collect(),
            comm: run
                .ranks
                .iter()
                .flat_map(|t| t.comm.iter().cloned())
                .collect(),
        };
        (m, Some(run))
    } else {
        (untraced_run(&fastq, &cfg), None)
    };
    let peak_rss = peak_rss_mb();

    let wall_s = m.wall.as_secs_f64();
    let slowest_stages = m
        .rank_stage_s
        .iter()
        .map(|s| s.iter().sum::<f64>())
        .fold(0.0, f64::max);
    let per_rank: Vec<String> = m
        .rank_stage_s
        .iter()
        .map(|s| format!("[{}]", s.map(num).join(",")))
        .collect();
    let mut fields: Vec<(String, String)> = vec![
        ("wall_s".into(), num(wall_s)),
        ("setup_s".into(), num(wall_s - slowest_stages)),
        ("peak_rss_mb".into(), num(peak_rss)),
        ("recall".into(), num(recall(&m.alignments, &truth))),
        ("input_bases".into(), input_bases.to_string()),
        (
            "comm_bytes".into(),
            m.comm
                .iter()
                .map(CommStats::total_bytes)
                .sum::<u64>()
                .to_string(),
        ),
        ("digest".into(), format!("\"{}\"", digest(&m.alignments))),
        (
            "faults".into(),
            m.comm.iter().map(fault_count).sum::<u64>().to_string(),
        ),
        ("rank_stage_s".into(), format!("[{}]", per_rank.join(","))),
    ];
    if let Some(run) = &traced {
        let mut layers: Vec<(String, String)> =
            layer_metrics(run, &m.alignments, fastq.len(), &true_pairs)
                .into_iter()
                .map(|(k, v)| (k, num(v)))
                .collect();
        if let Some(path) = &args.trace_out {
            let tasks: Vec<_> = run
                .ranks
                .iter()
                .flat_map(|t| t.tasks.iter().cloned())
                .collect();
            let (cells, t) = trace::kernel_replay(&run.reads, &tasks, &cfg);
            let stage_cells: u64 = run.ranks.iter().map(|t| t.align.dp_cells).sum();
            assert_eq!(
                cells, stage_cells,
                "kernel replay must do the stage's DP work"
            );
            layers.push((
                "align.kernel_cells_per_s".into(),
                num(ratio(cells as f64, t.as_secs_f64())),
            ));
            std::fs::write(path, trace::chrome_trace_json(run))
                .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
        }
        fields.push(("layers".into(), json_object(&layers)));
    }
    println!("{}", json_object(&fields));
}

/// Every fault counter of the hardened exchange, summed; zero on a
/// clean transport.
fn fault_count(c: &CommStats) -> u64 {
    c.frames_corrupt_detected
        + c.frames_retransmitted
        + c.duplicates_dropped
        + c.wait_timeouts
        + u64::from(c.retry_wall > Duration::ZERO)
}
