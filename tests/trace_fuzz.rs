//! Hostile-stream and corrupt-checkpoint fuzz against the full replay
//! and resume paths.
//!
//! Every run replays seeded generator streams, which are well formed by
//! construction. The hostile-stream tests feed every cache organization
//! in the comparison set streams no generator produces: arbitrary
//! unaligned 63-bit addresses, the extreme addresses, gaps up to
//! 2^32 - 1 cycles and random write flags, plus dense 64 B-aligned
//! streams whose sets conflict, on the default, `tdram` and `pcm-far`
//! substrates. No scheme may panic, every access must complete after it
//! was issued, and every access must be counted.

use bimodal::cache::{CacheAccess, SchemeStats};
use bimodal::dram::BackendKind;
use bimodal::prng::SmallRng;
use bimodal::sim::{SchemeKind, SystemConfig};
use bimodal::workloads::Access;

/// Longest gap in a hostile stream: 2^32 - 1 compute cycles.
const MAX_GAP: u64 = u32::MAX as u64;

fn system() -> SystemConfig {
    SystemConfig::quad_core().with_cache_mb(4)
}

/// 0..=20 accesses at arbitrary, unaligned 63-bit addresses, with
/// random write flags and gaps in `[0, 2^32)`.
fn arbitrary_stream(rng: &mut SmallRng) -> Vec<Access> {
    let n = rng.gen_range(0usize..21);
    (0..n)
        .map(|_| Access {
            addr: rng.next_u64() >> 1,
            is_write: rng.gen_bool(0.5),
            gap: rng.gen_range(0..MAX_GAP + 1),
        })
        .collect()
}

/// The lowest and highest addresses, read and written, after gaps of 0
/// and 2^32 - 1.
fn edge_stream() -> Vec<Access> {
    let mut out = Vec::new();
    for addr in [0, (1 << 63) - 64, (1 << 63) - 1] {
        for is_write in [false, true] {
            for gap in [0, MAX_GAP] {
                out.push(Access {
                    addr,
                    is_write,
                    gap,
                });
            }
        }
    }
    out
}

/// `n` 64 B-aligned accesses below 64 MiB, so sets conflict, with
/// writes at probability `writes` and gaps under 500 cycles.
fn aligned_stream(rng: &mut SmallRng, n: usize, writes: f64) -> Vec<Access> {
    (0..n)
        .map(|_| Access {
            addr: rng.gen_range(0u64..1 << 26) & !63,
            is_write: rng.gen_bool(writes),
            gap: rng.gen_range(0u64..500),
        })
        .collect()
}

/// Replays `accesses` through a fresh `kind` on `config`'s memory
/// substrate, asserting time always advances and every access is
/// counted; returns the final statistics and end time.
fn replay_on(kind: SchemeKind, config: &SystemConfig, accesses: &[Access]) -> (SchemeStats, u64) {
    let mut scheme = kind.build(config);
    let mut mem = config.build_memory();
    let mut now = 0;
    for a in accesses {
        let access = if a.is_write {
            CacheAccess::write(a.addr, now)
        } else {
            CacheAccess::read(a.addr, now)
        };
        let out = scheme.access(access, &mut mem);
        assert!(out.complete > now, "{kind}: completion must advance");
        now = out.complete + a.gap;
    }
    assert_eq!(scheme.stats().accesses, accesses.len() as u64, "{kind}");
    (scheme.stats().clone(), now)
}

/// Replays every stream through every scheme on `config`.
fn replay_everywhere(config: &SystemConfig, streams: &[Vec<Access>]) {
    for stream in streams {
        for kind in SchemeKind::comparison_set() {
            replay_on(kind, config, stream);
        }
    }
}

/// The default substrate services 24 arbitrary streams, the edge stream
/// and 4 set-conflicting aligned streams on every organization.
#[test]
fn garbage_traces_never_panic_any_scheme() {
    let mut rng = SmallRng::seed_from_u64(0xF022);
    let mut streams: Vec<Vec<Access>> = (0..24).map(|_| arbitrary_stream(&mut rng)).collect();
    streams.push(edge_stream());
    streams.extend((0..4).map(|_| {
        let n = rng.gen_range(4usize..21);
        aligned_stream(&mut rng, n, 0.3)
    }));
    replay_everywhere(&system(), &streams);
}

/// Writes and gaps are part of the deterministic input: replaying the
/// same write-heavy stream twice gives every scheme the same statistics
/// and the same end time.
#[test]
fn aligned_write_stream_replays_identically_on_every_scheme() {
    let mut rng = SmallRng::seed_from_u64(0xF0F0);
    let accesses = aligned_stream(&mut rng, 400, 0.25);
    for kind in SchemeKind::comparison_set() {
        assert_eq!(
            replay_on(kind, &system(), &accesses),
            replay_on(kind, &system(), &accesses),
            "{kind}"
        );
    }
}

/// The exotic substrates digest the same hostile corpus: 8 arbitrary and
/// 8 aligned streams on the fused-burst `tdram` and slow-media `pcm-far`
/// backends. The fused tag+data shortcut and the asymmetric write
/// penalty both sit on the hit/miss hot paths, so arbitrary 63-bit
/// addresses and gaps must not trip either.
#[test]
fn hostile_traces_never_panic_on_tdram_or_pcm_far() {
    let mut rng = SmallRng::seed_from_u64(0x7D0);
    let mut streams: Vec<Vec<Access>> = (0..8).map(|_| arbitrary_stream(&mut rng)).collect();
    streams.extend((0..8).map(|_| {
        let n = rng.gen_range(4usize..21);
        aligned_stream(&mut rng, n, 0.3)
    }));
    for backend in [BackendKind::Tdram, BackendKind::PcmFar] {
        replay_everywhere(&system().with_backend(backend), &streams);
    }
}

// ---------------------------------------------------------------------
// Corrupt-checkpoint fuzz: the `bimodal-ckpt-v1` container and the full
// resume path must turn every malformed snapshot into a typed error —
// truncations, bit flips, and wrong versions never panic, and a payload
// checksum mismatch names the section it caught.
// ---------------------------------------------------------------------

/// A real mid-run snapshot to mutilate, produced by a checkpointed run.
fn pristine_checkpoint(tag: &str) -> (std::path::PathBuf, Vec<u8>) {
    use bimodal::obs::Observer;
    use bimodal::sim::{CheckpointSpec, Simulation};
    use bimodal::workloads::WorkloadMix;
    let path = std::env::temp_dir().join(format!(
        "bimodal-fuzz-ckpt-{tag}-{}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    let spec = CheckpointSpec::new(path.clone(), 2_000).expect("valid cadence");
    let mut obs = Observer::disabled();
    Simulation::new(system(), SchemeKind::BiModal)
        .run_mix_checkpointed(&mix, 3_000, &mut obs, Some(&spec), None)
        .expect("checkpointed run");
    let bytes = std::fs::read(&path).expect("snapshot exists");
    (path, bytes)
}

/// Resumes a run from `bytes` written at `path`; must never panic.
fn try_resume(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    use bimodal::obs::Observer;
    use bimodal::sim::Simulation;
    use bimodal::workloads::WorkloadMix;
    std::fs::write(path, bytes).expect("writable temp file");
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    let mut obs = Observer::disabled();
    Simulation::new(system(), SchemeKind::BiModal)
        .run_mix_checkpointed(&mix, 3_000, &mut obs, None, Some(path))
        .map(|_| ())
        .map_err(|e| e.to_string())
}

#[test]
fn truncated_checkpoints_fail_typed_at_every_length() {
    use bimodal::ckpt::CkptFile;
    let (path, bytes) = pristine_checkpoint("trunc");
    // Sanity: the untouched snapshot parses and resumes.
    CkptFile::from_bytes(&bytes).expect("pristine snapshot parses");
    try_resume(&path, &bytes).expect("pristine snapshot resumes");
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut cuts: Vec<usize> = (0..64)
        .map(|_| (rng.next_u64() as usize) % bytes.len())
        .collect();
    cuts.extend([0, 1, 11, 12, 15, 16, bytes.len() - 1]);
    for cut in cuts {
        let err = CkptFile::from_bytes(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("a snapshot cut to {cut} bytes must not parse"));
        // Every truncation is a typed error with a readable rendering.
        assert!(!format!("{err}").is_empty());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flipped_checkpoints_never_panic_the_resume_path() {
    let (path, bytes) = pristine_checkpoint("flip");
    let mut rng = SmallRng::seed_from_u64(0xBADC0DE);
    for _ in 0..48 {
        let pos = (rng.next_u64() as usize) % bytes.len();
        let bit = 1u8 << (rng.next_u64() % 8) as u8;
        let mut mutated = bytes.clone();
        mutated[pos] ^= bit;
        // A flipped snapshot must be rejected with a typed error: the
        // container checksums every section, so nothing slips through
        // to corrupt a resumed run silently.
        let err = try_resume(&path, &mutated)
            .err()
            .unwrap_or_else(|| panic!("flipping bit {bit:#x} at byte {pos} must be caught"));
        assert!(!err.is_empty());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_version_checkpoints_name_the_version() {
    use bimodal::ckpt::{CkptError, CkptFile, MAGIC};
    let (path, bytes) = pristine_checkpoint("version");
    let mut mutated = bytes;
    // The little-endian u32 version sits right after the magic.
    mutated[MAGIC.len()] = 0x2A;
    match CkptFile::from_bytes(&mutated) {
        Err(CkptError::BadVersion { found }) => assert_eq!(found, 0x2A),
        other => panic!("expected BadVersion, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checksum_mismatch_names_the_offending_section() {
    use bimodal::ckpt::{CkptError, CkptFile};
    let mut file = CkptFile::new();
    file.put("alpha", vec![1, 2, 3, 4]);
    file.put("beta", b"payload under test".to_vec());
    let bytes = file.to_bytes();
    // Flip one byte inside beta's payload (search from the end so the
    // section name bytes themselves stay intact).
    let payload_pos = bytes
        .windows(7)
        .rposition(|w| w == b"payload")
        .expect("beta payload is in the serialized image");
    let mut mutated = bytes;
    mutated[payload_pos + 3] ^= 0x10;
    match CkptFile::from_bytes(&mutated) {
        Err(CkptError::Checksum { section }) => {
            assert_eq!(section, "beta", "the error names the damaged section");
        }
        other => panic!("expected a Checksum error naming beta, got {other:?}"),
    }
}
