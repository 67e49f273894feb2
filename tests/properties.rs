//! Randomized property tests on the core data structures.
//!
//! Each property pits a component against a simple reference model (or an
//! invariant) over pseudo-random operation sequences. Sequences are drawn
//! from the workspace's own deterministic PRNG across several seeds, so
//! failures reproduce exactly without any external test framework.

use std::collections::{HashMap, HashSet};

use bimodal::cache::{
    BlockSize, BlockSizePredictor, CacheAccess, CacheGeometry, DataLayout, FunctionalCache,
    FunctionalConfig, MetadataLayout, MetadataPlacement, PredictorConfig, SetArena, SetState,
    WayLocator, WayLocatorConfig,
};
use bimodal::dram::{
    AddressMapping, BackendKind, DeferredOp, DeferredQueue, DramConfig, DramModule, Location,
    MemorySystem, Request, TrafficClass,
};
use bimodal::faults::{CampaignConfig, FaultRates};
use bimodal::obs::Observer;
use bimodal::prng::SmallRng;
use bimodal::sim::{LlscCache, LlscConfig, SchemeKind, Simulation, SystemConfig};
use bimodal::workloads::WorkloadMix;

const SEEDS: [u64; 6] = [1, 7, 42, 1234, 0xDEAD_BEEF, u64::MAX / 3];

fn geometry() -> CacheGeometry {
    CacheGeometry::paper_default(1 << 20)
}

/// The way locator never returns a mapping it was not told about
/// ("never makes any wrong predictions", Section III-C1).
#[test]
fn way_locator_never_fabricates() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut wl = WayLocator::new(WayLocatorConfig {
            index_bits: 6,
            addr_bits: 24,
            offset_bits: 9,
        });
        // Shadow model of exactly what was inserted, keyed like the cache
        // would be: big entries by 512 B base, small ones by 64 B base.
        let mut shadow: HashMap<(u64, bool), u8> = HashMap::new();
        for _ in 0..300 {
            let addr = rng.gen_range(0u64..1 << 22) & !63;
            let way = rng.gen_range(0u8..2);
            let big = rng.gen_bool(0.5);
            let size = if big {
                BlockSize::Big
            } else {
                BlockSize::Small
            };
            let shadow_key = if big {
                (addr >> 9, true)
            } else {
                (addr >> 6, false)
            };
            if way == 0 {
                wl.insert(addr, size, way);
                shadow.insert(shadow_key, way);
            } else if let Some(e) = wl.lookup(addr) {
                // Anything the locator returns must have been inserted with
                // exactly these coordinates.
                let key = if e.size == BlockSize::Big {
                    (addr >> 9, true)
                } else {
                    (addr >> 6, false)
                };
                assert_eq!(
                    shadow.get(&key),
                    Some(&e.way),
                    "locator returned a way that was never inserted (seed {seed})"
                );
            }
        }
    }
}

/// A bi-modal set never exceeds its state's way counts, and its state
/// stays within the geometry's allowed states.
#[test]
fn set_occupancy_and_state_invariants() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = geometry();
        let allowed = g.allowed_states();
        let mut sets = SetArena::new(&g);
        let set = 0;
        for _ in 0..400 {
            let tag = rng.gen_range(0u64..64);
            let sub = rng.gen_range(0u8..8);
            let big = rng.gen_bool(0.5);
            let global = allowed[rng.gen_range(0usize..allowed.len())];
            let size = if big {
                BlockSize::Big
            } else {
                BlockSize::Small
            };
            if let Some(way) = sets.lookup(set, tag, sub) {
                sets.touch(set, way, sub, big);
            } else {
                let _ = sets.insert(set, size, tag, sub, global, &mut |n| {
                    (tag % u64::from(n)) as u8
                });
            }
            let st = sets.state(set);
            assert!(allowed.contains(&st), "illegal state {st} (seed {seed})");
            assert!(sets.occupancy(set) <= usize::from(st.big) + usize::from(st.small));
            // Space conservation: big ways + small ways never exceed the
            // set's byte budget.
            let bytes = u32::from(st.big) * g.big_block + u32::from(st.small) * g.small_block;
            assert!(bytes <= g.set_bytes);
        }
    }
}

/// After any insert, the inserted block is resident and findable.
#[test]
fn inserted_blocks_are_findable() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = geometry();
        let mut sets = SetArena::new(&g);
        let set = 0;
        let global = SetState { big: 3, small: 8 };
        for _ in 0..200 {
            let tag = rng.gen_range(0u64..32);
            let sub = rng.gen_range(0u8..8);
            let big = rng.gen_bool(0.5);
            let size = if big {
                BlockSize::Big
            } else {
                BlockSize::Small
            };
            if sets.lookup(set, tag, sub).is_none() {
                let out = sets.insert(set, size, tag, sub, global, &mut |_| 0);
                assert_eq!(sets.lookup(set, tag, sub), Some(out.way), "seed {seed}");
            }
        }
    }
}

/// The functional cache with capacity far beyond the touched range never
/// misses twice on the same block.
#[test]
fn functional_cache_no_capacity_misses_when_fitting() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cache = FunctionalCache::new(FunctionalConfig::new(1 << 20, 64, 16));
        let mut seen = HashSet::new();
        for _ in 0..300 {
            let a = rng.gen_range(0u64..1 << 14);
            let block = a / 64;
            let hit = cache.access(a);
            if seen.contains(&block) {
                // 2^14 byte range = 256 blocks << 16K-block capacity.
                assert!(
                    hit,
                    "block {block} was evicted despite fitting (seed {seed})"
                );
            }
            seen.insert(block);
        }
    }
}

/// DRAM completions never go backwards: `done > start >= arrival`.
#[test]
fn dram_time_is_monotone() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut config = DramConfig::stacked(2, 8);
        config.timing = config.timing.without_refresh();
        let mut m = DramModule::new(config);
        let mut now = 0u64;
        for _ in 0..200 {
            now += rng.gen_range(1u64..200);
            let loc = Location::new(
                rng.gen_range(0u32..2),
                0,
                rng.gen_range(0u32..8),
                rng.gen_range(0u64..64),
            );
            let c = m.access(Request::read(loc, 64, now));
            assert!(c.start >= c.arrival, "seed {seed}");
            assert!(c.done > c.start, "seed {seed}");
        }
    }
}

/// The predictor always returns one of the two sizes and its
/// prediction counts add up.
#[test]
fn predictor_counts_are_consistent() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = BlockSizePredictor::new(PredictorConfig::paper_default());
        let mut predictions = 0u64;
        for _ in 0..300 {
            let addr = rng.gen_range(0u64..1 << 30);
            if rng.gen_bool(0.5) {
                p.update(addr, rng.gen_bool(0.5));
            } else {
                let _ = p.predict(addr);
                predictions += 1;
            }
        }
        let (b, s) = p.prediction_counts();
        assert_eq!(b + s, predictions, "seed {seed}");
    }
}

/// End-to-end smoke property: the Bi-Modal cache services arbitrary
/// access sequences without violating its statistics invariants.
#[test]
fn bimodal_cache_stats_invariants() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let system = bimodal::sim::SystemConfig::quad_core().with_cache_mb(4);
        let mut scheme = SchemeKind::BiModal.build(&system);
        let mut mem: MemorySystem = system.build_memory();
        let mut now = 0u64;
        let n = 150;
        for _ in 0..n {
            let addr = rng.gen_range(0u64..1 << 23);
            let access = if rng.gen_bool(0.5) {
                CacheAccess::write(addr, now)
            } else {
                CacheAccess::read(addr, now)
            };
            let out = scheme.access(access, &mut mem);
            assert!(out.complete > now, "seed {seed}");
            now = out.complete + rng.gen_range(1u64..500);
        }
        let s = scheme.stats();
        assert_eq!(s.accesses, n, "seed {seed}");
        assert_eq!(s.hits + s.misses, s.accesses);
        assert_eq!(s.small_hits + s.big_hits, s.hits);
        assert_eq!(s.locator_hits + s.locator_misses, s.accesses);
    }
}

fn ecc_campaign(kind: SchemeKind, seed: u64, multi_bit: f64) -> bimodal::faults::CampaignReport {
    let system = SystemConfig::quad_core().with_cache_mb(4).with_warmup(300);
    let mix = WorkloadMix::quad("Q1").expect("known mix");
    CampaignConfig::new(system, kind, mix)
        .with_accesses(600)
        .with_rates(FaultRates {
            metadata: 0.05,
            multi_bit,
            ..FaultRates::default()
        })
        .with_ecc(true)
        .with_seed(seed)
        .run(&mut Observer::disabled())
        .expect("ECC campaign runs")
}

/// SECDED property, single-bit half: with ECC on, every single-bit
/// metadata flip is ledgered (never applied raw), eventually corrected,
/// and invisible to the shadow oracle — on every organization.
#[test]
fn ecc_corrects_every_single_bit_flip() {
    for seed in &SEEDS[..3] {
        for kind in SchemeKind::comparison_set() {
            let report = ecc_campaign(kind, *seed, 0.0);
            assert!(
                report.counts.metadata > 0,
                "{kind}: campaign must land flips (seed {seed})"
            );
            assert_eq!(report.counts.metadata_multi, 0, "{kind} (seed {seed})");
            assert_eq!(report.counts.metadata_applied, 0, "{kind} (seed {seed})");
            assert_eq!(report.silent_corruptions, 0, "{kind} (seed {seed})");
            assert_eq!(
                report.detected_uncorrected, 0,
                "{kind}: single-bit flips must never invalidate (seed {seed})"
            );
            assert!(
                report.detected_corrected >= report.counts.metadata,
                "{kind}: every flip corrected (seed {seed})"
            );
            assert_eq!(
                report.shadow.expect("shadow on").faulted_violations,
                0,
                "{kind} (seed {seed})"
            );
        }
    }
}

/// SECDED property, double-bit half: with ECC on, every multi-bit
/// metadata flip is detected-uncorrectable — the entry is invalidated
/// rather than trusted, so nothing goes silent and the shadow oracle
/// stays quiet — on every organization.
#[test]
fn ecc_invalidates_every_double_bit_flip() {
    for seed in &SEEDS[..3] {
        for kind in SchemeKind::comparison_set() {
            let report = ecc_campaign(kind, *seed, 1.0);
            assert!(
                report.counts.metadata_multi > 0,
                "{kind}: campaign must land multi-bit flips (seed {seed})"
            );
            assert_eq!(report.counts.metadata, 0, "{kind} (seed {seed})");
            assert_eq!(report.counts.metadata_applied, 0, "{kind} (seed {seed})");
            assert_eq!(report.silent_corruptions, 0, "{kind} (seed {seed})");
            assert!(
                report.detected_uncorrected >= report.counts.metadata_multi,
                "{kind}: every multi-bit flip invalidates (seed {seed})"
            );
            assert_eq!(
                report.shadow.expect("shadow on").faulted_violations,
                0,
                "{kind}: a detected-uncorrectable flip must never serve data (seed {seed})"
            );
        }
    }
}

/// Off-chip address mapping round-trips for any address.
#[test]
fn address_mapping_round_trips() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = AddressMapping::new(&DramConfig::ddr3(2, 2));
        for _ in 0..500 {
            let addr = rng.gen_range(0u64..1 << 40);
            let d = m.decode(addr);
            assert_eq!(
                m.encode_row(d.loc) + u64::from(d.column),
                addr,
                "seed {seed}"
            );
        }
    }
}

/// Distinct sets never share a (data location, metadata slot) pair,
/// and metadata always lives on a different channel than its data.
#[test]
fn metadata_layout_is_injective() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = CacheGeometry::paper_default(8 << 20);
        let dram = DramConfig::stacked(2, 8);
        let layout = DataLayout::new(&g, &dram, true);
        let md = MetadataLayout::new(&g, &dram, &layout, MetadataPlacement::DedicatedBank);
        let mut seen = HashMap::new();
        for _ in 0..40 {
            let s = rng.gen_range(0u64..4096);
            let d = layout.set_location(s);
            let m = md.metadata_location(s, d);
            assert_ne!(m.channel, d.channel, "seed {seed}");
            if let Some(prev) = seen.insert((d.channel, d.bank, d.row), s) {
                assert_eq!(prev, s, "two sets share a data page (seed {seed})");
            }
        }
    }
}

/// The deferred queue releases operations in nondecreasing time order.
#[test]
fn deferred_queue_orders_by_time() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut q = DeferredQueue::new();
        for _ in 0..100 {
            let t = rng.gen_range(0u64..10_000);
            q.push(
                t,
                DeferredOp::MainWrite {
                    addr: t,
                    bytes: 64,
                    class: TrafficClass::Writeback,
                },
            );
        }
        let mut last = 0;
        while let Some((at, _)) = q.pop_due(u64::MAX) {
            assert!(at >= last, "seed {seed}");
            last = at;
        }
        assert!(q.is_empty());
    }
}

/// The LLSC never reports a hit for a line that was never inserted, and
/// never writes back an unknown line.
#[test]
fn llsc_against_shadow_model() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut l = LlscCache::new(LlscConfig {
            capacity: 1 << 13,
            line_bytes: 64,
            assoc: 2,
            hit_cycles: 7,
        });
        let mut inserted = HashSet::new();
        for _ in 0..300 {
            let addr = rng.gen_range(0u64..1 << 16);
            let w = rng.gen_bool(0.5);
            let line = addr / 64;
            let out = l.access(addr, w);
            if out.hit {
                assert!(
                    inserted.contains(&line),
                    "hit on never-inserted line (seed {seed})"
                );
            }
            inserted.insert(line);
            if let Some(vb) = out.writeback {
                assert!(
                    inserted.contains(&(vb / 64)),
                    "writeback of unknown line (seed {seed})"
                );
            }
        }
    }
}

/// Bandwidth attribution closes on every substrate: after servicing an
/// arbitrary access sequence on any (scheme x backend) pair, each
/// channel's per-class busy cycles sum exactly to its total busy count,
/// and the busy total never exceeds the end of the channel's busy span
/// (non-overlapping bus transfers cannot pack more cycles than that).
#[test]
fn channel_class_cycles_sum_to_busy_on_every_backend() {
    for backend in BackendKind::ALL {
        for kind in SchemeKind::comparison_set() {
            let system = SystemConfig::quad_core()
                .with_cache_mb(4)
                .with_backend(backend);
            let mut scheme = kind.build(&system);
            let mut mem: MemorySystem = system.build_memory();
            assert_eq!(mem.backend(), backend);
            let mut rng = SmallRng::seed_from_u64(0xBACC_0000 ^ backend.name().len() as u64);
            let mut now = 0u64;
            for _ in 0..150 {
                let addr = rng.gen_range(0u64..1 << 23);
                let access = if rng.gen_bool(0.3) {
                    CacheAccess::write(addr, now)
                } else {
                    CacheAccess::read(addr, now)
                };
                let out = scheme.access(access, &mut mem);
                now = out.complete + rng.gen_range(1u64..300);
            }
            mem.drain_deferred(now + 1_000_000);
            for (module, tracker) in [
                ("cache", mem.cache_dram.bandwidth()),
                ("offchip", mem.main.bandwidth()),
            ] {
                for (i, ch) in tracker.channels().iter().enumerate() {
                    assert_eq!(
                        ch.busy.total_cycles(),
                        ch.busy_cycles,
                        "{kind} @ {} {module} ch{i}: class cycles must sum to busy",
                        backend.name()
                    );
                    assert!(
                        ch.busy_cycles <= ch.busy_until,
                        "{kind} @ {} {module} ch{i}: {} busy cycles packed into a \
                         span ending at {}",
                        backend.name(),
                        ch.busy_cycles,
                        ch.busy_until
                    );
                }
            }
        }
    }
}

/// Bank occupancy never overlaps per bank, on any backend's timing
/// pack: a bank's accumulated busy cycles cannot exceed the end of the
/// last completion plus the tail one write may hold the bank past its
/// reported `done` (write recovery plus any media write penalty).
#[test]
fn bank_busy_never_overlaps_on_any_backend() {
    for backend in BackendKind::ALL {
        let b = backend.backend();
        for (tag, mut config) in [("stacked", b.stacked(2, 8)), ("offchip", b.offchip(2, 2))] {
            // Refresh windows are block-accounted; strip them so the
            // invariant bounds pure access occupancy.
            config.timing = config.timing.without_refresh();
            let slack = config.timing.wr + config.extra_write_lat;
            let banks = config.ranks_per_channel * config.banks_per_rank;
            let mut m = DramModule::new(config.clone());
            let mut rng = SmallRng::seed_from_u64(0xBA1C ^ banks as u64);
            let mut now = 0u64;
            let mut last_done = 0u64;
            for _ in 0..250 {
                now += rng.gen_range(1u64..150);
                let loc = Location::new(
                    rng.gen_range(0u32..config.channels),
                    rng.gen_range(0u32..config.ranks_per_channel),
                    rng.gen_range(0u32..config.banks_per_rank),
                    rng.gen_range(0u64..32),
                );
                let c = if rng.gen_bool(0.4) {
                    m.access(Request::write(loc, 64, now))
                } else {
                    m.access(Request::read(loc, 64, now))
                };
                assert!(c.done > c.start, "{} {tag}", backend.name());
                last_done = last_done.max(c.done);
            }
            for (i, bank) in m.bandwidth().banks().iter().enumerate() {
                let busy: u64 = bank.iter().sum();
                assert!(
                    busy <= last_done + slack,
                    "{} {tag} bank{i}: {busy} busy cycles cannot fit in \
                     [0, {last_done}] without overlap",
                    backend.name()
                );
            }
        }
    }
}

/// A far-memory substrate is slower than the paper's DDR3: on the same
/// seeded mix, every scheme's average access latency under `pcm-far`
/// strictly dominates the `paper2014` default — the media read/write
/// penalties must actually reach the timing model.
#[test]
fn pcm_far_latency_strictly_dominates_paper2014() {
    let mix = || WorkloadMix::quad("Q1").expect("known mix");
    for kind in SchemeKind::comparison_set() {
        let run = |backend: BackendKind| {
            let system = SystemConfig::quad_core()
                .with_cache_mb(4)
                .with_backend(backend);
            Simulation::new(system, kind)
                .run_mix(&mix(), 2_000)
                .expect("simulation runs")
        };
        let paper = run(BackendKind::Paper2014);
        let pcm = run(BackendKind::PcmFar);
        assert!(
            pcm.avg_latency() > paper.avg_latency(),
            "{kind}: pcm-far avg latency {:.1} must exceed paper2014 {:.1}",
            pcm.avg_latency(),
            paper.avg_latency()
        );
    }
}

/// DRAM module statistics balance: activates == precharges +
/// currently-open rows, and row events sum to accesses.
#[test]
fn dram_stats_balance() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut config = DramConfig::stacked(2, 8);
        config.timing = config.timing.without_refresh();
        let mut m = DramModule::new(config);
        let mut now = 0u64;
        let mut banks_touched = HashSet::new();
        let n = 150;
        for _ in 0..n {
            now += 50;
            let ch = rng.gen_range(0u32..2);
            let bank = rng.gen_range(0u32..8);
            let row = rng.gen_range(0u64..32);
            m.access(Request::read(Location::new(ch, 0, bank, row), 64, now));
            banks_touched.insert((ch, bank));
        }
        let s = m.stats();
        assert_eq!(s.totals.accesses(), n, "seed {seed}");
        // Every activate either was precharged or its row is still open.
        assert_eq!(
            s.totals.activates,
            s.totals.precharges + banks_touched.len() as u64,
            "seed {seed}"
        );
    }
}

/// The latency-anatomy structural invariant: on every (scheme x
/// backend) pair, each demand population's per-component cycles sum
/// exactly to its total measured latency — no cycles invented, none
/// lost. (Per-access exactness is additionally enforced by a
/// debug assertion inside `anatomy::finish_access`, which this
/// debug-mode run exercises on every access.)
#[test]
fn anatomy_components_sum_to_latency_on_every_backend() {
    use bimodal::obs::ObserverConfig;
    let mix = WorkloadMix::quad("Q1").expect("Q1 exists");
    for backend in BackendKind::ALL {
        for kind in SchemeKind::comparison_set() {
            let system = SystemConfig::quad_core()
                .with_cache_mb(4)
                .with_backend(backend);
            let mut obs = Observer::enabled(ObserverConfig::default().with_anatomy());
            let report = Simulation::new(system, kind)
                .run_mix_observed(&mix, 1_500, &mut obs)
                .expect("observed run");
            obs.anatomy
                .as_ref()
                .expect("anatomy was enabled")
                .check_sums()
                .unwrap_or_else(|e| panic!("{kind} @ {}: {e}", backend.name()));
            let a = report.anatomy.expect("anatomy was enabled");
            let mut demand = 0u64;
            for p in &a.populations {
                let sum: u64 = p.components.iter().map(|c| c.cycles).sum();
                assert_eq!(
                    sum,
                    p.total_latency,
                    "{kind} @ {} {}: components must sum to measured latency",
                    backend.name(),
                    p.name
                );
                demand += p.count;
            }
            assert!(
                demand > 0,
                "{kind} @ {}: anatomy saw no demand accesses",
                backend.name()
            );
        }
    }
}
