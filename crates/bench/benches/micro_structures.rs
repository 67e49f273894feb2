//! Microbenchmarks of the hot structures (criterion-free wall-clock).
//!
//! Reports nanoseconds per operation for the way locator, block size
//! predictor, bi-modal set, DRAM bank engine and ATCache's SRAM tag cache
//! — the inner loops of the simulator.

use std::hint::black_box;
use std::time::Instant;

use bimodal_baselines::{AtCache, AtCacheConfig};
use bimodal_core::{
    BiModalSet, BlockSize, BlockSizePredictor, CacheAccess, CacheGeometry, DramCacheScheme,
    FunctionalCache, FunctionalConfig, PredictorConfig, WayLocator, WayLocatorConfig,
};
use bimodal_dram::{DramConfig, DramModule, Location, MemorySystem, Request};

fn time<F: FnMut(u64) -> u64>(label: &str, iters: u64, mut f: F) {
    // Warm up.
    let mut acc = 0u64;
    for i in 0..iters / 10 {
        acc = acc.wrapping_add(f(i));
    }
    let start = Instant::now();
    for i in 0..iters {
        acc = acc.wrapping_add(f(i));
    }
    let elapsed = start.elapsed();
    black_box(acc);
    println!(
        "{label:40} {:>8.1} ns/op  ({iters} iters)",
        elapsed.as_nanos() as f64 / iters as f64
    );
}

fn main() {
    bimodal_bench::banner(
        "Microbenchmarks — simulator hot paths",
        "way locator, predictor, set, functional cache, DRAM engine and ATCache tag cache",
    );
    let iters = 2_000_000;

    let mut wl = WayLocator::new(WayLocatorConfig {
        index_bits: 14,
        addr_bits: 32,
        offset_bits: 9,
    });
    for i in 0..100_000u64 {
        wl.insert(i * 512, BlockSize::Big, (i % 4) as u8);
    }
    time("way locator lookup", iters, |i| {
        u64::from(wl.lookup(black_box(i * 512 % (1 << 30))).is_some())
    });

    let mut p = BlockSizePredictor::new(PredictorConfig::paper_default());
    time("predictor predict", iters, |i| {
        u64::from(p.predict(black_box(i * 512)) == BlockSize::Big)
    });
    time("predictor update", iters, |i| {
        p.update(black_box(i * 512), i % 3 == 0);
        0
    });

    let geometry = CacheGeometry::paper_default(1 << 20);
    let mut set = BiModalSet::new(&geometry);
    let global = geometry.allowed_states()[1];
    time("bi-modal set insert+lookup", iters / 4, |i| {
        let size = if i % 3 == 0 {
            BlockSize::Small
        } else {
            BlockSize::Big
        };
        set.insert(size, i % 1000, (i % 8) as u8, global, &mut |n| {
            (i % u64::from(n)) as u8
        });
        u64::from(set.lookup(i % 1000, (i % 8) as u8).is_some())
    });

    let mut fc = FunctionalCache::new(FunctionalConfig::new(1 << 22, 512, 4));
    time("functional cache access", iters, |i| {
        u64::from(fc.access(black_box((i * 8_191) % (1 << 28))))
    });

    let mut dram = DramModule::new(DramConfig::stacked(2, 8));
    time("dram module access", iters, |i| {
        let loc = Location::new((i % 2) as u32, 0, (i % 8) as u32, (i * 31) % 1024);
        dram.access(Request::read(loc, 64, i * 20)).done
    });

    // ATCache hits at the tag-cache sizes the 8 MB and 128 MB runs use:
    // each access reads the least recently used of as many resident sets
    // as the tag cache holds, so a cost that grows with the tag cache's
    // size shows as a gap between the two lines.
    for (mb, tag_cache_sets) in [(8u64, 256usize), (128, 4096)] {
        let mut c = AtCache::new(AtCacheConfig {
            tag_cache_sets,
            ..AtCacheConfig::for_cache_mb(mb)
        });
        let mut mem = MemorySystem::quad_core();
        let resident = tag_cache_sets as u64;
        let mut now = 0;
        for set in 0..resident {
            now = c
                .access(CacheAccess::read(set * 64, now), &mut mem)
                .complete;
        }
        let warm_misses = c.stats().locator_misses;
        time(
            &format!("ATCache tag-cache-hit access {mb:>3} MB"),
            iters / 10,
            |i| {
                let addr = black_box((i % resident) * 64);
                let outcome = c.access(CacheAccess::read(addr, now), &mut mem);
                now = outcome.complete;
                u64::from(outcome.hit)
            },
        );
        assert_eq!(
            c.stats().locator_misses,
            warm_misses,
            "every timed access must hit the tag cache"
        );
    }
}
