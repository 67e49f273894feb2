//! The fault-injection surface a cache scheme exposes to resilience
//! campaigns.
//!
//! A fault campaign perturbs three classes of controller state — DRAM
//! metadata entries, SRAM way-locator entries and block-size-predictor
//! counters — through the [`FaultTarget`] trait, and the scheme models the
//! architectural response:
//!
//! * With metadata ECC enabled, injected metadata flips are held in a
//!   pending ledger instead of being applied: the SECDED code over each
//!   entry detects them at the next tag probe of the set, where single-bit
//!   flips are corrected in place and multi-bit flips invalidate the
//!   affected way (detected but uncorrectable).
//! * Without ECC, metadata flips corrupt the stored tag for real — the
//!   honest silent-corruption baseline.
//! * Way-locator and predictor upsets only ever disturb *hints*; the
//!   access path verifies hints against metadata and self-heals, so these
//!   faults cost latency and bandwidth but never correctness.

use bimodal_prng::SmallRng;

/// One injected metadata-entry disturbance, as recorded by the scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetadataFault {
    /// Set index of the disturbed entry.
    pub set: u64,
    /// Whether the disturbed way holds a big block.
    pub big: bool,
    /// Way index within its kind (big or small).
    pub way: u8,
    /// The tag before the flip.
    pub orig_tag: u64,
    /// The tag the flip would produce.
    pub new_tag: u64,
    /// True for a multi-bit upset (detectable but not correctable by
    /// SECDED).
    pub multi_bit: bool,
    /// True when the flip was applied to live state (no ECC); false when
    /// it sits in the ECC ledger awaiting detection at the next tag probe.
    pub applied: bool,
}

/// The hooks a scheme exposes to the fault-campaign engine.
///
/// All injection is driven by the campaign's own seeded [`SmallRng`], so a
/// given seed reproduces the exact same disturbance schedule; the scheme
/// never consumes its own RNG on these paths (a zero-rate campaign is
/// bit-identical to an unfaulted run).
pub trait FaultTarget {
    /// Flips one (or, for `multi_bit`, two) tag bits of a randomly chosen
    /// resident metadata entry. Returns `None` when no entry is resident
    /// near the probed sets.
    fn inject_metadata_flip(
        &mut self,
        rng: &mut SmallRng,
        multi_bit: bool,
    ) -> Option<MetadataFault>;

    /// Corrupts the way field of a randomly chosen way-locator entry.
    /// Returns false when the locator is absent or empty.
    fn inject_locator_flip(&mut self, rng: &mut SmallRng) -> bool;

    /// Flips one bit of a randomly chosen block-size-predictor counter.
    /// Returns false when the scheme has no predictor in play.
    fn inject_predictor_upset(&mut self, rng: &mut SmallRng) -> bool;

    /// An order-sensitive digest of the functional cache contents
    /// (resident tags, granularities, referenced/dirty masks). Two runs
    /// whose accesses left identical contents produce identical digests.
    fn contents_digest(&self) -> u64;

    /// Scrubs every still-pending (ledgered) metadata fault at end of
    /// campaign, as a background scrubber eventually would. Returns
    /// `(corrected, detected_uncorrectable)` counts.
    fn flush_faults(&mut self) -> (u64, u64);
}

/// The pending-fault side of a SECDED ECC model, shared by every
/// organization: injected metadata flips are parked here instead of
/// corrupting live state, and the next tag probe of the affected set
/// drains them (detection happens when the protected entries are
/// actually decoded).
#[derive(Debug, Default)]
pub struct EccLedger {
    pending: Vec<MetadataFault>,
}

impl EccLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        EccLedger {
            pending: Vec::new(),
        }
    }

    /// Whether any fault is awaiting detection.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Parks a flip until the next probe of its set.
    pub fn push(&mut self, fault: MetadataFault) {
        self.pending.push(fault);
    }

    /// Removes and returns every pending fault of `set` — the probe that
    /// just completed decoded all of the set's protected entries.
    pub fn drain_set(&mut self, set: u64) -> Vec<MetadataFault> {
        let mut drained = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].set == set {
                drained.push(self.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        drained
    }

    /// Removes and returns every pending fault (end-of-campaign scrub).
    pub fn drain_all(&mut self) -> Vec<MetadataFault> {
        std::mem::take(&mut self.pending)
    }
}

/// The tag disturbance pattern shared by every scheme's
/// [`FaultTarget::inject_metadata_flip`]: one bit flip within the low 20
/// tag bits (inside every geometry's tag width), or two distinct bits for
/// a multi-bit upset. Draws from `rng` in a fixed order so the schedule
/// is seed-reproducible across organizations.
#[must_use]
pub fn random_tag_xor(rng: &mut SmallRng, multi_bit: bool) -> u64 {
    if multi_bit {
        let b1 = rng.gen_range(0u32..20);
        let b2 = (b1 + rng.gen_range(1u32..20)) % 20;
        (1u64 << b1) | (1u64 << b2)
    } else {
        1u64 << rng.gen_range(0u32..20)
    }
}

/// FNV-1a accumulator behind every scheme's
/// [`FaultTarget::contents_digest`], so digests are comparable within a
/// scheme (identical contents, identical digest) using one shared set of
/// constants.
#[derive(Debug, Clone, Copy)]
pub struct ContentsDigest(u64);

impl ContentsDigest {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        ContentsDigest(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes one value into the digest (order-sensitive).
    pub fn mix(&mut self, v: u64) {
        const PRIME: u64 = 0x100_0000_01b3;
        self.0 = (self.0 ^ v).wrapping_mul(PRIME);
    }

    /// The accumulated digest.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for ContentsDigest {
    fn default() -> Self {
        ContentsDigest::new()
    }
}

bimodal_ckpt::snapshot_fields! {
    MetadataFault { set, big, way, orig_tag, new_tag, multi_bit, applied }
}

bimodal_ckpt::snapshot_fields! { EccLedger { pending } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_drains_by_set_and_then_fully() {
        let fault = |set: u64, multi_bit: bool| MetadataFault {
            set,
            big: false,
            way: 0,
            orig_tag: 5,
            new_tag: 7,
            multi_bit,
            applied: false,
        };
        let mut ledger = EccLedger::new();
        assert!(ledger.is_empty());
        ledger.push(fault(3, false));
        ledger.push(fault(9, true));
        ledger.push(fault(3, true));
        let drained = ledger.drain_set(3);
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().all(|f| f.set == 3));
        assert!(!ledger.is_empty());
        assert_eq!(ledger.drain_set(4).len(), 0);
        assert_eq!(ledger.drain_all().len(), 1);
        assert!(ledger.is_empty());
    }

    /// No checkpointable run holds a `MetadataFault` (faults come from
    /// campaigns, which do not checkpoint), so the scheme hash pins never
    /// cover these bytes: pin them here. Every field differs from its
    /// neighbours, so any swap in the field list changes the bytes.
    #[test]
    fn ecc_ledger_bytes_are_pinned() {
        use bimodal_ckpt::{Snapshot, SnapshotReader, SnapshotWriter};
        #[rustfmt::skip]
        const PINNED: [u8; 64] = [
            2, 0, 0, 0, 0, 0, 0, 0, // two pending faults, each:
            // set, big, way, orig_tag, new_tag, multi_bit, applied
            0x11, 0, 0, 0, 0, 0, 0, 0, 1, 3,
            0x22, 0x22, 0, 0, 0, 0, 0, 0, 0x33, 0x33, 0, 0, 0, 0, 0, 0, 0, 1,
            0x44, 0, 0, 0, 0, 0, 0, 0, 0, 5,
            0x55, 0x55, 0, 0, 0, 0, 0, 0, 0x66, 0x66, 0, 0, 0, 0, 0, 0, 1, 1,
        ];
        let fault = |set, big, way, orig_tag, new_tag, multi_bit| MetadataFault {
            set,
            big,
            way,
            orig_tag,
            new_tag,
            multi_bit,
            applied: true,
        };
        let faults = [
            fault(0x11, true, 3, 0x2222, 0x3333, false),
            fault(0x44, false, 5, 0x5555, 0x6666, true),
        ];
        let mut ledger = EccLedger::new();
        for f in faults {
            ledger.push(f);
        }
        let mut w = SnapshotWriter::new();
        ledger.save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, PINNED);
        let mut back = EccLedger::load(&mut SnapshotReader::new(&bytes, "ledger")).unwrap();
        assert_eq!(back.drain_all(), faults);
    }

    #[test]
    fn tag_xor_stays_in_the_low_twenty_bits() {
        let mut rng = SmallRng::seed_from_u64(42);
        for i in 0..200 {
            let xor = random_tag_xor(&mut rng, i % 2 == 0);
            assert_ne!(xor, 0);
            assert_eq!(xor >> 20, 0, "flips must stay within the tag width");
            let bits = xor.count_ones();
            assert_eq!(bits, if i % 2 == 0 { 2 } else { 1 });
        }
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = ContentsDigest::new();
        a.mix(1);
        a.mix(2);
        let mut b = ContentsDigest::new();
        b.mix(2);
        b.mix(1);
        assert_ne!(a.value(), b.value());
        assert_eq!(a.value(), {
            let mut c = ContentsDigest::new();
            c.mix(1);
            c.mix(2);
            c.value()
        });
    }
}
