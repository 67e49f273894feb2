//! Shared placement helpers for the baseline organizations.

use bimodal_dram::{DramConfig, Location};

/// Stripes row-sized ordinals (sets, TAD rows, pages) across the stacked
/// DRAM's channels and banks, channels first for maximum parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMapper {
    /// `channels - 1`.
    channel_mask: u64,
    /// `log2(channels)`.
    channel_shift: u32,
    /// `banks_per_channel - 1`.
    bank_mask: u64,
    /// `log2(channels * banks_per_channel)`.
    stripe_shift: u32,
}

impl RowMapper {
    /// Builds a mapper over all banks of `config`.
    ///
    /// # Panics
    ///
    /// If the channel or per-channel bank count is not a power of two:
    /// the schemes' set-index arithmetic assumes the stripe divides
    /// evenly, and a non-power-of-two geometry would silently alias rows
    /// (the same guard [`bimodal_core::FunctionalCache`] applies to its
    /// sets). [`DramConfig::validate`] refuses such a geometry first.
    #[must_use]
    pub fn new(config: &DramConfig) -> Self {
        let channels = u64::from(config.channels);
        let banks_per_channel = u64::from(config.ranks_per_channel * config.banks_per_rank);
        assert!(
            channels.is_power_of_two(),
            "channel count must be a power of two, got {channels}"
        );
        assert!(
            banks_per_channel.is_power_of_two(),
            "banks per channel must be a power of two, got {banks_per_channel}"
        );
        RowMapper {
            channel_mask: channels - 1,
            channel_shift: channels.trailing_zeros(),
            bank_mask: banks_per_channel - 1,
            stripe_shift: channels.trailing_zeros() + banks_per_channel.trailing_zeros(),
        }
    }

    /// Location of the `ordinal`-th row-sized unit.
    #[must_use]
    pub fn location(&self, ordinal: u64) -> Location {
        let channel = ordinal & self.channel_mask;
        let bank = (ordinal >> self.channel_shift) & self.bank_mask;
        let row = ordinal >> self.stripe_shift;
        Location::new(channel as u32, 0, bank as u32, row)
    }

    /// Rows available per full stripe (channels x banks).
    #[must_use]
    pub fn stripe(&self) -> u64 {
        1 << self.stripe_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimodal_dram::BackendKind;
    use bimodal_prng::SmallRng;

    #[test]
    fn stripes_channels_first() {
        let m = RowMapper::new(&DramConfig::stacked(2, 8));
        assert_eq!(m.location(0), Location::new(0, 0, 0, 0));
        assert_eq!(m.location(1), Location::new(1, 0, 0, 0));
        assert_eq!(m.location(2), Location::new(0, 0, 1, 0));
        assert_eq!(m.location(16), Location::new(0, 0, 0, 1));
        assert_eq!(m.stripe(), 16);
    }

    #[test]
    fn accepts_every_stock_geometry() {
        for config in [
            DramConfig::stacked(2, 8),
            DramConfig::stacked(4, 8),
            DramConfig::stacked(8, 8),
            DramConfig::ddr3(1, 2),
        ] {
            let m = RowMapper::new(&config);
            assert!(m.stripe().is_power_of_two());
        }
    }

    #[test]
    #[should_panic(expected = "channel count must be a power of two")]
    fn rejects_non_power_of_two_channels() {
        let mut config = DramConfig::stacked(2, 8);
        config.channels = 3;
        let _ = RowMapper::new(&config);
    }

    #[test]
    fn shift_location_matches_division_on_every_backend() {
        let mut rng = SmallRng::seed_from_u64(0x0DD5);
        for b in BackendKind::ALL {
            // The quad-, eight- and sixteen-core stacked geometries.
            for channels in [2, 4, 8] {
                let config = b.backend().stacked(channels, 8);
                let m = RowMapper::new(&config);
                let channels = u64::from(config.channels);
                let banks = u64::from(config.ranks_per_channel * config.banks_per_rank);
                for _ in 0..5_000 {
                    let ordinal = rng.next_u64();
                    let by_division = Location::new(
                        (ordinal % channels) as u32,
                        0,
                        ((ordinal / channels) % banks) as u32,
                        ordinal / (channels * banks),
                    );
                    assert_eq!(
                        m.location(ordinal),
                        by_division,
                        "{} {ordinal:#x}",
                        b.name()
                    );
                }
                assert_eq!(m.stripe(), channels * banks);
            }
        }
    }
}
