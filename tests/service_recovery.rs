//! Crash-point property suite for the durable solve service.
//!
//! The contract under test is the strongest one `fdmax::durability`
//! makes: **kill the process at any byte of the write-ahead journal and
//! recovery reproduces the uninterrupted run bit for bit.** For three
//! master seeds and a mixed-PDE workload, a fully journalled baseline
//! run is truncated at [`DetRng`]-chosen byte offsets — frame
//! boundaries, mid-record torn writes, offset zero — and each truncated
//! journal is recovered and drained:
//!
//! 1. every job that was still incomplete at the crash point finishes
//!    with the **same [`ServiceReport::digest`]** (outcome, clock
//!    fields, fault trace, every solution bit) as the baseline;
//! 2. jobs already completed before the cut are *not* re-run — the
//!    recovered service trusts the journalled state image;
//! 3. across the sweep both recovery paths really occur: resume from a
//!    persisted checkpoint *and* deterministic replay from iteration
//!    zero (including cuts that tear a record in half);
//! 4. a second recovery after the drain is quiescent — nothing left to
//!    re-admit;
//! 5. an unwritable journal directory degrades the service loudly
//!    (stats flag) without failing a single job, and recovery from the
//!    broken path still yields a working, degraded service;
//! 6. a journal in the older `Completed` layout (tag 4) still recovers
//!    to the digests it was written with;
//! 7. a checkpoint with a valid checksum but an impossible field size
//!    is refused without allocating for it, and its job replays from
//!    iteration zero.

use detrng::DetRng;
use fdm::convergence::StopCondition;
use fdm::io::crc32;
use fdm::pde::PdeKind;
use fdm::workload::benchmark_problem;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::config::FdmaxConfig;
use fdmax::durability::{decode_journal, DurabilityConfig, FsyncPolicy, JournalRecord};
use fdmax::resilience::ResiliencePolicy;
use fdmax::service::{JobSpec, ServiceConfig, SolveService};
use memmodel::faults::{EccMode, FaultCampaign};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Three distinct master seeds, as the acceptance bar requires.
const SEEDS: [u64; 3] = [0xA5A5, 0x00C1_05ED, 0xFD11_2233];

const KINDS: [PdeKind; 4] = [
    PdeKind::Laplace,
    PdeKind::Poisson,
    PdeKind::Heat,
    PdeKind::Wave,
];

const JOBS: u64 = 5;

/// The `i`-th job of the mix: PDE kind, grid size, step count and
/// update method all vary deterministically with the index.
fn mixed_spec(i: u64) -> JobSpec {
    let kind = KINDS[(i % 4) as usize];
    let n = 10 + (i as usize * 3) % 8;
    let steps = 8 + (i as usize * 7) % 24;
    let sp = benchmark_problem::<f32>(kind, n, steps).unwrap();
    let method = if i.is_multiple_of(3) {
        HwUpdateMethod::Hybrid
    } else {
        HwUpdateMethod::Jacobi
    };
    JobSpec::new(sp, method, StopCondition::fixed_steps(steps))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdmax-recov-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Dense parity-detected flips with a zero retry budget: the detailed
/// rung fails deterministically, so every job is served by the
/// checkpoint-taking reference rung.
fn checkpointing_config(dir: &Path) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
    cfg.campaign = FaultCampaign {
        sram_flips_per_iteration: 5.0,
        dma_failure_prob: 0.0,
        ..FaultCampaign::harsh(0x0B5E55)
    };
    cfg.policy = ResiliencePolicy {
        max_retries: 0,
        ..ResiliencePolicy::default()
    };
    cfg.with_durability(
        DurabilityConfig::new(dir)
            .with_checkpoint_every(7)
            .with_fsync_policy(FsyncPolicy::Never),
    )
}

/// A moderately hostile campaign the detailed rung mostly survives:
/// recovery exercises deterministic replay-from-zero across the whole
/// fallback chain rather than checkpoint resume.
fn chaotic_config(dir: &Path, seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
    cfg.campaign = FaultCampaign {
        seed,
        sram_flips_per_iteration: 0.05,
        ecc: EccMode::Parity,
        dma_failure_prob: 0.005,
        max_dma_retries: 4,
        dma_backoff_cycles: 16,
    };
    cfg.with_durability(
        DurabilityConfig::new(dir)
            .with_checkpoint_every(7)
            .with_fsync_policy(FsyncPolicy::Never),
    )
}

/// Runs the full mixed workload on a fresh durable service and returns
/// the per-job report digests plus the journal bytes and checkpoint
/// files left behind.
fn baseline(config: ServiceConfig, dir: &Path) -> (BTreeMap<u64, u64>, Vec<u8>) {
    let mut svc = SolveService::new(config);
    for i in 0..JOBS {
        let _ = svc.submit(mixed_spec(i)).unwrap();
    }
    let digests: BTreeMap<u64, u64> = svc.drain().iter().map(|r| (r.job.0, r.digest())).collect();
    assert_eq!(digests.len() as u64, JOBS);
    assert!(!svc.stats().journal_degraded);
    let journal = std::fs::read(dir.join("journal.fdx")).unwrap();
    (digests, journal)
}

/// Materialises a crash at byte `cut` of the baseline journal: a fresh
/// directory holding the truncated journal plus every checkpoint file
/// (checkpoints are written atomically before the record naming them,
/// so any checkpoint a surviving record references exists on disk).
fn crash_dir(base: &Path, tag: &str, journal: &[u8], cut: usize) -> PathBuf {
    let dir = tmpdir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(base).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name != "journal.fdx" {
            std::fs::copy(entry.path(), dir.join(name)).unwrap();
        }
    }
    std::fs::write(dir.join("journal.fdx"), &journal[..cut]).unwrap();
    dir
}

/// Byte offsets of each frame boundary in an encoded journal.
fn frame_boundaries(journal: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0usize];
    for record in &decode_journal(journal).records {
        offsets.push(offsets.last().unwrap() + record.encode().len());
    }
    offsets
}

/// The crash-point sweep for one (config, seed) pair. Returns
/// `(resumed_from_checkpoint, torn_tails)` totals across the sweep so
/// callers can assert both recovery paths really ran.
fn sweep(tag: &str, config_of: impl Fn(&Path) -> ServiceConfig, cuts: usize) -> (u64, u64) {
    let base = tmpdir(&format!("{tag}-base"));
    let (digests, journal) = baseline(config_of(&base), &base);
    let contents = decode_journal(&journal);
    assert!(!contents.torn, "the baseline journal is whole");
    let boundaries = frame_boundaries(&journal);
    assert_eq!(*boundaries.last().unwrap(), journal.len());

    // DetRng-chosen offsets: arbitrary bytes (mostly mid-record), plus
    // offset zero, plus the boundary right after the last checkpoint
    // record (guaranteeing at least one checkpoint resume when the
    // workload checkpoints at all).
    let mut rng = DetRng::seed_from_u64(0xC4A5_4000 ^ journal.len() as u64);
    let mut offsets: BTreeSet<usize> = (0..cuts).map(|_| rng.gen_range(1, journal.len())).collect();
    offsets.insert(0);
    if let Some(last_ckpt) = contents
        .records
        .iter()
        .rposition(|r| matches!(r, JournalRecord::CheckpointTaken { .. }))
    {
        offsets.insert(boundaries[last_ckpt + 1]);
    }

    let mut resumed_total = 0u64;
    let mut torn_total = 0u64;
    for (k, cut) in offsets.iter().copied().enumerate() {
        let dir = crash_dir(&base, &format!("{tag}-cut{k}"), &journal, cut);

        // What the truncated prefix admits vs completes decides what
        // recovery must re-run.
        let prefix = decode_journal(&journal[..cut]);
        let completed: BTreeSet<u64> = prefix
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Completed { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let pending: Vec<u64> = prefix
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Submitted { id, .. } => Some(*id),
                _ => None,
            })
            .filter(|id| !completed.contains(id))
            .collect();

        let (mut svc, summary) = SolveService::recover(config_of(&dir));
        torn_total += u64::from(summary.torn_tail);
        resumed_total += summary.resumed_from_checkpoint;
        assert_eq!(
            summary.jobs_completed as usize,
            completed.len(),
            "cut {cut}"
        );
        assert_eq!(summary.jobs_recovered as usize, pending.len(), "cut {cut}");
        assert!(!summary.journal_degraded, "cut {cut}");

        let reports = svc.drain();
        assert_eq!(
            reports.len(),
            pending.len(),
            "cut {cut}: exactly the \
             incomplete jobs re-run"
        );
        for report in &reports {
            assert_eq!(
                report.digest(),
                digests[&report.job.0],
                "cut {cut}: job {} diverged from the uninterrupted run",
                report.job
            );
        }
        assert_eq!(svc.stats().recovered_jobs as usize, pending.len());

        // Recovery after the drain is quiescent: the journal now holds
        // a Completed record for every Submitted one.
        drop(svc);
        let (_, again) = SolveService::recover(config_of(&dir));
        assert_eq!(
            again.jobs_recovered, 0,
            "cut {cut}: drained journal \
             has nothing left to re-admit"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base).unwrap();
    (resumed_total, torn_total)
}

/// Crash points against the checkpoint-heavy workload: every job is
/// served by the reference rung, so cuts beyond the first cadence
/// boundary resume mid-solve from a persisted snapshot.
#[test]
fn any_crash_point_recovers_bit_identically_with_checkpoints() {
    let (resumed, torn) = sweep("ckpt", checkpointing_config, 6);
    assert!(resumed > 0, "no cut ever resumed from a checkpoint");
    assert!(torn > 0, "no cut ever tore a record mid-frame");
}

/// Crash points against the chaotic campaign: the detailed rung serves
/// most jobs (it takes no checkpoints), so recovery leans on
/// deterministic replay from iteration zero — same digests regardless.
#[test]
fn any_crash_point_recovers_bit_identically_under_chaos() {
    for seed in SEEDS {
        let tag = format!("chaos{seed:x}");
        let (_, torn) = sweep(&tag, |dir| chaotic_config(dir, seed), 4);
        assert!(torn > 0, "seed {seed:#x}: no cut ever tore a record");
    }
}

/// An unwritable journal directory must never fail a job: the service
/// degrades to in-memory operation, says so loudly in its stats, and
/// recovery from the broken path comes up degraded but functional.
#[test]
fn unwritable_journal_dir_degrades_without_failing_jobs() {
    let dir = tmpdir("degraded");
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let config = || {
        ServiceConfig::new(FdmaxConfig::paper_default())
            .with_durability(DurabilityConfig::new(blocker.join("journal")))
    };

    let mut svc = SolveService::new(config());
    for i in 0..JOBS {
        let _ = svc.submit(mixed_spec(i)).unwrap();
    }
    let reports = svc.drain();
    assert_eq!(reports.len() as u64, JOBS);
    for report in &reports {
        assert!(report.served_by().is_some(), "{}: job failed", report.job);
    }
    assert!(svc.stats().journal_degraded, "degradation is loud");
    assert!(svc.stats().journal_io_errors > 0);

    let (svc, summary) = SolveService::recover(config());
    assert!(summary.journal_degraded);
    assert!(svc.stats().journal_degraded);
    assert_eq!(summary.jobs_recovered, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The committed journal under `tests/fixtures/legacy_journal_v4` was
/// written in the older `Completed` layout (payload tag 4), which also
/// carried three race counters and seven per-rung service-time rings.
/// It holds two completed jobs and a third interrupted after its only
/// checkpoint; `digests.txt` lists the report digest of each job from
/// the uninterrupted run that produced it.
fn legacy_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/legacy_journal_v4")
}

/// The service configuration the legacy fixture was written under:
/// the checkpointing campaign with a 16-iteration cadence.
fn legacy_config(dir: &Path) -> ServiceConfig {
    let mut cfg = checkpointing_config(dir);
    cfg.durability = Some(
        DurabilityConfig::new(dir)
            .with_checkpoint_every(16)
            .with_fsync_policy(FsyncPolicy::Never),
    );
    cfg
}

#[test]
fn legacy_tag4_journal_recovers_to_its_committed_digests() {
    let fixture = legacy_fixture();
    let digests: BTreeMap<u64, u64> = std::fs::read_to_string(fixture.join("digests.txt"))
        .unwrap()
        .lines()
        .map(|line| {
            let (id, digest) = line.split_once(' ').unwrap();
            (
                id.parse().unwrap(),
                u64::from_str_radix(digest, 16).unwrap(),
            )
        })
        .collect();
    let journal = std::fs::read(fixture.join("journal.fdx")).unwrap();

    // The fixture really is the older layout: every completion is a
    // tag-4 frame whose trailing ring bytes are not all zero.
    let mut legacy_frames = 0;
    let mut pos = 0;
    while pos < journal.len() {
        let len = u32::from_le_bytes(journal[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = &journal[pos + 8..pos + 8 + len];
        assert_ne!(payload[0], 5, "the fixture holds no new-layout completion");
        if payload[0] == 4 {
            legacy_frames += 1;
            assert!(payload[payload.len() - 462..].iter().any(|&b| b != 0));
        }
        pos += 8 + len;
    }
    assert!(legacy_frames >= 2);

    let contents = decode_journal(&journal);
    assert!(!contents.torn, "a tag-4 completion is not a torn tail");
    assert_eq!(contents.valid_len, journal.len());
    let mut completed = 0;
    let mut checkpoints = 0;
    for record in &contents.records {
        match record {
            JournalRecord::Completed {
                id, outcome_digest, ..
            } => {
                assert_eq!(*outcome_digest, digests[id], "job {id}");
                completed += 1;
            }
            JournalRecord::CheckpointTaken { .. } => checkpoints += 1,
            _ => {}
        }
    }
    assert_eq!(completed, legacy_frames);
    assert_eq!(checkpoints, 1);

    // Recovery appends to the journal, so it runs on a copy.
    let dir = tmpdir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let (mut svc, summary) = SolveService::recover(legacy_config(&dir));
    assert!(!summary.torn_tail);
    assert_eq!(summary.jobs_completed, completed as u64);
    assert_eq!(summary.jobs_recovered, 1);
    assert_eq!(summary.resumed_from_checkpoint, 1);
    let reports = svc.drain();
    assert_eq!(reports.len(), 1);
    for report in &reports {
        assert_eq!(report.digest(), digests[&report.job.0], "{}", report.job);
    }

    // The resumed job's completion lands in the new layout after the
    // old frames, and the mixed journal still scans whole.
    drop(svc);
    let mixed = decode_journal(&std::fs::read(dir.join("journal.fdx")).unwrap());
    assert!(!mixed.torn);
    let completions = mixed
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Completed { .. }))
        .count();
    assert_eq!(completions, digests.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// DESIGN.md §12: a corrupt checkpoint replays from zero. A checkpoint
/// with a valid checksum that claims a 2^20 x 2^20 field is corrupt
/// too: decoding refuses it without reserving memory for the claim, and
/// recovery replays its job from iteration zero to the digest of the
/// uninterrupted run.
#[test]
fn checkpoint_claiming_a_huge_field_replays_from_zero() {
    let base = tmpdir("huge-base");
    let (digests, journal) = baseline(checkpointing_config(&base), &base);
    let contents = decode_journal(&journal);
    let last = contents
        .records
        .iter()
        .rposition(|r| matches!(r, JournalRecord::CheckpointTaken { .. }))
        .expect("the checkpointing workload checkpoints");
    let JournalRecord::CheckpointTaken { snapshot_ref, .. } = &contents.records[last] else {
        unreachable!()
    };
    let cut = frame_boundaries(&journal)[last + 1];
    let dir = crash_dir(&base, "huge-cut", &journal, cut);

    let mut payload = Vec::new();
    payload.extend_from_slice(&(1u64 << 20).to_le_bytes());
    payload.extend_from_slice(&(1u64 << 20).to_le_bytes());
    payload.push(4);
    payload.extend_from_slice(&16u64.to_le_bytes());
    payload.push(0);
    let mut crafted = (payload.len() as u32).to_le_bytes().to_vec();
    crafted.extend_from_slice(&crc32(&payload).to_le_bytes());
    crafted.extend_from_slice(&payload);
    assert_eq!(crafted.len(), 34);
    std::fs::write(dir.join(snapshot_ref), &crafted).unwrap();

    let (mut svc, summary) = SolveService::recover(checkpointing_config(&dir));
    assert!(summary.jobs_recovered >= 1);
    assert_eq!(summary.resumed_from_checkpoint, 0, "replays from zero");
    let reports = svc.drain();
    assert_eq!(reports.len() as u64, summary.jobs_recovered);
    for report in &reports {
        assert_eq!(report.digest(), digests[&report.job.0], "{}", report.job);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&base).unwrap();
}
