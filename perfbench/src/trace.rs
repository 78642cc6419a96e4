//! The traced run: the stage sequence of `dibella_core::pipeline_rank`
//! rebuilt from public calls, with one span around every call.
//!
//! Spans live in memory until the run ends and are then written as
//! Chrome trace-event JSON (loads in Perfetto or `chrome://tracing`).
//! The replica must produce exactly `run_pipeline`'s alignments; the
//! benchmark compares digests (`run.py`), so a drift between the two shows
//! as a failed run rather than as silently different per-layer numbers.

use dibella_align::{extend_seed_with_workspace, set_thread_simd_mode, AlignWorkspace, SeedHit};
use dibella_comm::{BatchedExecutor, Comm, CommStats, CommWorld};
use dibella_core::{align_tasks, fetch_remote_reads, AlignCounters, AlignmentRecord};
use dibella_core::{PipelineConfig, SeedMode};
use dibella_io::{partition_reads, read_fastq, Read, ReadPartition, ReadSet, ReadStore};
use dibella_kcount::{
    bloom_stage_overlapping, hash_stage_prepacked, minimizer_stage, FilterStats, KmerStageCounters,
};
use dibella_kmer::base::reverse_complement_ascii_into;
use dibella_overlap::{overlap_stage_with_lengths, OverlapCounters, OverlapTask, TaskPlacement};
use std::time::{Duration, Instant};

/// One timed call. `parent` indexes the span list the span was recorded
/// into; `rank` is `None` for calls made outside the SPMD world.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub rank: Option<usize>,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// In-memory span recorder for one thread; times are offsets from a
/// shared origin so spans of all ranks line up.
pub struct Recorder {
    origin: Instant,
    rank: Option<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, rank: Option<usize>) -> Self {
        Self {
            origin,
            rank,
            spans: Vec::new(),
        }
    }

    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            layer,
            rank: self.rank,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, layer, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Pipeline stage groups, named after the crate that does the work: the
/// `kcount` group is the seed front end (Bloom + hash passes, or the one
/// minimizer pass).
pub const STAGES: [&str; 3] = ["kcount", "overlap", "align"];

/// What one rank of the traced run produced and measured.
pub struct RankTrace {
    pub alignments: Vec<AlignmentRecord>,
    pub spans: Vec<Span>,
    /// Stage span ids, indexed like [`STAGES`]; `kcount` has one span per
    /// pass (two in reliable mode, one in minimizer mode).
    pub stage_spans: [Vec<usize>; 3],
    /// Traffic per stage group, merged over its passes.
    pub comm: [CommStats; 3],
    pub bloom: KmerStageCounters,
    pub hash: KmerStageCounters,
    pub filter: FilterStats,
    pub table_keys: u64,
    pub table_bytes: u64,
    pub overlap: OverlapCounters,
    pub align: AlignCounters,
    pub tasks: Vec<OverlapTask>,
}

impl RankTrace {
    /// Seconds this rank spent in stage group `s` (index into [`STAGES`]).
    pub fn stage_secs(&self, s: usize) -> f64 {
        self.stage_spans[s]
            .iter()
            .map(|&id| self.spans[id].secs())
            .sum()
    }

    /// Seconds spent in the call spans named `name`.
    pub fn call_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(Span::secs)
            .sum()
    }
}

/// The whole traced run.
pub struct TracedRun {
    pub wall: Duration,
    pub alignments: Vec<AlignmentRecord>,
    pub reads: ReadSet,
    /// Spans outside the world: the run, FASTQ parse, partition, world, merge.
    pub main: Vec<Span>,
    pub ranks: Vec<RankTrace>,
}

/// Run the pipeline on `fastq` with a span around every public call.
pub fn traced_run(fastq: &[u8], p: usize, cfg: &PipelineConfig) -> TracedRun {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, None);
    let root = rec.open("traced_run", "core", None);
    let reads = rec.time("read_fastq", "io", Some(root), || {
        read_fastq(fastq, 0).expect("generated FASTQ parses")
    });
    let (part, chunks) = rec.time("partition_reads", "io", Some(root), || {
        partition_reads(&reads, p)
    });
    let world = rec.open("CommWorld::run_with", "comm", Some(root));
    let ranks = CommWorld::run_with(p, &cfg.transport, |comm| {
        traced_rank(
            comm,
            chunks[comm.rank()].clone().into_reads(),
            &part,
            cfg,
            origin,
        )
    });
    rec.close(world);
    let merge = rec.open("merge", "core", Some(root));
    let mut alignments: Vec<AlignmentRecord> = ranks
        .iter()
        .flat_map(|r| r.alignments.iter().copied())
        .collect();
    alignments.sort_unstable();
    rec.close(merge);
    rec.close(root);
    let wall = origin.elapsed();
    TracedRun {
        wall,
        alignments,
        reads,
        main: rec.spans,
        ranks,
    }
}

/// Take the stage's traffic snapshot and close its span — in that order,
/// as `pipeline_rank` reads its stage clock after `take_stats`.
fn end_stage(comm: &Comm, rec: &mut Recorder, span: usize) -> CommStats {
    let stats = comm.take_stats();
    rec.close(span);
    stats
}

/// One rank of the replica: the same calls, in the same order and with
/// the same stage windows, as `pipeline_rank` without checkpointing.
fn traced_rank(
    comm: &Comm,
    local: Vec<Read>,
    part: &ReadPartition,
    cfg: &PipelineConfig,
    origin: Instant,
) -> RankTrace {
    let rank = comm.rank();
    let mut rec = Recorder::new(origin, Some(rank));
    let root = rec.open("pipeline_rank", "core", None);

    let local_bases: u64 = local.iter().map(|r| r.len() as u64).sum();
    let total_bases = comm.allreduce_sum_u64(local_bases);
    comm.allreduce_sum_u64(local.len() as u64);
    let kc = cfg.kcount(total_bases);
    let oc = cfg.overlap();
    let exec = BatchedExecutor::new(cfg.effective_threads());
    comm.take_stats();

    let mut stage_spans: [Vec<usize>; 3] = Default::default();
    let mut kcount_comm = CommStats::new(comm.size());
    let (table, bloom, hash, filter, table_keys) = match cfg.seed_mode {
        SeedMode::Reliable => {
            let s = rec.open("stage.bloom", "core", Some(root));
            let (bloom_out, prepacked) =
                rec.time("bloom_stage_overlapping", "kcount", Some(s), || {
                    bloom_stage_overlapping(comm, &local, &kc, &exec)
                });
            kcount_comm.merge(&end_stage(comm, &mut rec, s));
            stage_spans[0].push(s);
            let mut table = bloom_out.table;
            let table_keys = table.len() as u64;
            let s = rec.open("stage.hash", "core", Some(root));
            let hash_out = rec.time("hash_stage_prepacked", "kcount", Some(s), || {
                hash_stage_prepacked(comm, &local, &mut table, &kc, &exec, Some(prepacked))
            });
            kcount_comm.merge(&end_stage(comm, &mut rec, s));
            stage_spans[0].push(s);
            (
                table,
                bloom_out.counters,
                hash_out.counters,
                hash_out.filter,
                table_keys,
            )
        }
        SeedMode::Minimizer => {
            let s = rec.open("stage.sketch", "core", Some(root));
            let mo = rec.time("minimizer_stage", "kcount", Some(s), || {
                minimizer_stage(comm, &local, cfg.minimizer_w, &kc, &exec)
            });
            kcount_comm.merge(&end_stage(comm, &mut rec, s));
            stage_spans[0].push(s);
            let keys = mo.counters.promoted_keys;
            (
                mo.table,
                KmerStageCounters::default(),
                mo.counters,
                mo.filter,
                keys,
            )
        }
    };
    let table_bytes = table.memory_bytes();

    let lengths: Option<Vec<u32>> = (oc.placement == TaskPlacement::LongerRead).then(|| {
        let local_lens: Vec<u32> = local.iter().map(|r| r.len() as u32).collect();
        comm.allgather(local_lens).into_iter().flatten().collect()
    });
    let s = rec.open("stage.overlap", "core", Some(root));
    let overlap_out = rec.time("overlap_stage_with_lengths", "overlap", Some(s), || {
        overlap_stage_with_lengths(comm, &table, part, &oc, lengths.as_deref(), &exec)
    });
    let overlap_comm = end_stage(comm, &mut rec, s);
    stage_spans[1].push(s);
    drop(table);

    let s = rec.open("stage.align", "core", Some(root));
    let mut align = AlignCounters::default();
    let mut store = ReadStore::new(rank, part.clone(), local);
    rec.time("fetch_remote_reads", "align", Some(s), || {
        fetch_remote_reads(
            comm,
            &mut store,
            &overlap_out.tasks,
            cfg.max_exchange_bytes_per_round,
            &mut align,
        )
    });
    let alignments = rec.time("align_tasks", "align", Some(s), || {
        align_tasks(&store, &overlap_out.tasks, cfg, &mut align, &exec)
    });
    let align_comm = end_stage(comm, &mut rec, s);
    stage_spans[2].push(s);
    rec.close(root);

    RankTrace {
        alignments,
        spans: rec.spans,
        stage_spans,
        comm: [kcount_comm, overlap_comm, align_comm],
        bloom,
        hash,
        filter,
        table_keys,
        table_bytes,
        overlap: overlap_out.counters,
        align,
        tasks: overlap_out.tasks,
    }
}

/// Replay the alignment kernel on `tasks`, single-threaded with a warm
/// workspace, exactly as `align_tasks` calls it. Returns (DP cells, time).
pub fn kernel_replay(
    reads: &ReadSet,
    tasks: &[OverlapTask],
    cfg: &PipelineConfig,
) -> (u64, Duration) {
    set_thread_simd_mode(cfg.simd);
    let mut ws = AlignWorkspace::new();
    let mut rc = Vec::new();
    let seqs = reads.reads();
    let mut pass = |tasks: &[OverlapTask]| -> u64 {
        let mut cells = 0u64;
        for task in tasks {
            let a = &seqs[task.pair.a as usize].seq;
            let b = &seqs[task.pair.b as usize].seq;
            let mut rc_filled = false;
            for seed in &task.seeds {
                let (b_oriented, b_pos): (&[u8], usize) = if seed.reverse {
                    if !rc_filled {
                        reverse_complement_ascii_into(b, &mut rc);
                        rc_filled = true;
                    }
                    (rc.as_slice(), b.len() - cfg.k - seed.b_pos as usize)
                } else {
                    (b, seed.b_pos as usize)
                };
                let hit = SeedHit {
                    a_pos: seed.a_pos as usize,
                    b_pos,
                    k: cfg.k,
                };
                let al =
                    extend_seed_with_workspace(a, b_oriented, hit, cfg.scoring, cfg.xdrop, &mut ws);
                cells += std::hint::black_box(al).cells;
            }
        }
        cells
    };
    // Warm-up on a prefix grows the workspace to the workload's sizes.
    pass(&tasks[..tasks.len().min(64)]);
    let t = Instant::now();
    let cells = pass(tasks);
    (cells, t.elapsed())
}

/// All spans of the run as Chrome trace-event JSON: one complete (`X`)
/// event per span, thread id = rank (the main thread is `ranks`).
pub fn chrome_trace_json(run: &TracedRun) -> String {
    let main_tid = run.ranks.len();
    let world = run
        .main
        .iter()
        .position(|s| s.name == "CommWorld::run_with");
    let mut events = Vec::new();
    let mut push = |id: usize, span: &Span, parent: Option<usize>| {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{}}}}}",
            span.name,
            span.layer,
            span.rank.unwrap_or(main_tid),
            span.start.as_secs_f64() * 1e6,
            (span.end - span.start).as_secs_f64() * 1e6,
            parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    };
    for (i, s) in run.main.iter().enumerate() {
        push(i, s, s.parent);
    }
    let mut offset = run.main.len();
    for r in &run.ranks {
        for (i, s) in r.spans.iter().enumerate() {
            push(offset + i, s, s.parent.map(|p| p + offset).or(world));
        }
        offset += r.spans.len();
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}
