//! DRAM module configuration.

use crate::timing::{Cycle, TimingParams};

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// Leave rows open after an access (the paper's policy, Table IV):
    /// later same-row accesses hit the row buffer.
    #[default]
    Open,
    /// Precharge immediately after each access: every access pays the
    /// activate, none pay a conflict precharge.
    Closed,
}

/// Static description of a DRAM module: geometry, bus, and timing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Number of independent channels (each with its own data bus).
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Row (DRAM page) size in bytes. The paper uses 2 KB pages.
    pub row_bytes: u32,
    /// Data bus width in bits, per channel.
    pub bus_bits: u32,
    /// CPU cycles per DRAM clock (2 for a 3.2 GHz CPU over 1.6 GHz DRAM).
    pub cpu_per_dram_clk: Cycle,
    /// Core timing parameters (in CPU cycles).
    pub timing: TimingParams,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Extra media latency added to every read's column access, in CPU
    /// cycles. Zero for DRAM; non-zero models slow storage-class media
    /// (3DXPoint-like) behind the same protocol.
    pub extra_read_lat: Cycle,
    /// Extra media latency a write holds its bank for after the burst, in
    /// CPU cycles. Zero for DRAM; storage-class media writes are far
    /// slower than reads, and the occupancy surfaces as queue pressure.
    pub extra_write_lat: Cycle,
}

impl DramConfig {
    /// Stacked-DRAM cache configuration matching Table IV: 2 KB pages,
    /// 128-bit bus at 1.6 GHz, CL-nRCD-nRP = 9-9-9, one rank per channel.
    ///
    /// The paper's 4/8/16-core systems use 2/4/8 channels with 8 banks per
    /// channel (16/32/64 banks total).
    #[must_use]
    pub fn stacked(channels: u32, banks_per_channel: u32) -> Self {
        DramConfig {
            channels,
            ranks_per_channel: 1,
            banks_per_rank: banks_per_channel,
            row_bytes: 2048,
            bus_bits: 128,
            cpu_per_dram_clk: 2,
            timing: TimingParams::stacked(2),
            page_policy: PagePolicy::Open,
            extra_read_lat: 0,
            extra_write_lat: 0,
        }
    }

    /// Off-chip DDR3-1600H configuration matching Table IV: 64-bit channel
    /// interface, 2 KB pages, 9-9-9, with refresh enabled.
    ///
    /// The paper's 4/8/16-core systems use 1/2/4 off-chip channels in 2/4/8
    /// ranks (16/32/64 banks total); pass the per-channel rank count.
    #[must_use]
    pub fn ddr3(channels: u32, ranks_per_channel: u32) -> Self {
        DramConfig {
            channels,
            ranks_per_channel,
            banks_per_rank: 8,
            row_bytes: 2048,
            bus_bits: 64,
            cpu_per_dram_clk: 2,
            timing: TimingParams::ddr3_1600h(2),
            page_policy: PagePolicy::Open,
            extra_read_lat: 0,
            extra_write_lat: 0,
        }
    }

    /// HBM2-class stacked configuration: same 128-bit channel and 2 KB
    /// rows as the paper's stack, but twice the banks per channel and the
    /// tighter [`TimingParams::hbm2`] core timings.
    #[must_use]
    pub fn hbm2_stacked(channels: u32, banks_per_channel: u32) -> Self {
        DramConfig {
            banks_per_rank: banks_per_channel * 2,
            timing: TimingParams::hbm2(2),
            ..DramConfig::stacked(channels, banks_per_channel)
        }
    }

    /// DDR5-4800-class off-chip configuration: same 64-bit channel and
    /// geometry as [`DramConfig::ddr3`], but a 1:1 CPU:DRAM clock ratio
    /// (double the bus bandwidth) and [`TimingParams::ddr5_4800`] core
    /// timings (higher first-word latency in cycles).
    #[must_use]
    pub fn ddr5(channels: u32, ranks_per_channel: u32) -> Self {
        DramConfig {
            cpu_per_dram_clk: 1,
            timing: TimingParams::ddr5_4800(1),
            ..DramConfig::ddr3(channels, ranks_per_channel)
        }
    }

    /// A slow 3DXPoint-like far tier behind the DRAM cache: DDR3 protocol
    /// and geometry, but asymmetric media latencies — every read pays
    /// ~110 ns extra before data, and every write holds its bank ~500 ns
    /// after the burst, so write bursts back up the deferred queues.
    #[must_use]
    pub fn pcm_far(channels: u32, ranks_per_channel: u32) -> Self {
        DramConfig {
            // ~110 ns extra read and ~500 ns write occupancy at 3.2 GHz.
            extra_read_lat: 352,
            extra_write_lat: 1600,
            ..DramConfig::ddr3(channels, ranks_per_channel)
        }
    }

    /// Total number of banks across the module.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Bytes transferred per CPU cycle on one channel's data bus
    /// (double data rate: two beats per DRAM clock).
    #[must_use]
    pub fn bus_bytes_per_cpu_cycle(&self) -> u32 {
        // bits/8 bytes per beat, 2 beats per DRAM clock, cpu_per_dram_clk
        // CPU cycles per DRAM clock.
        (self.bus_bits / 8) * 2 / u32::try_from(self.cpu_per_dram_clk).unwrap_or(1)
    }

    /// CPU cycles needed to move `bytes` over one channel's data bus.
    ///
    /// Always at least one cycle for a non-empty transfer. This is the
    /// reference formula; [`crate::DramModule`] computes the same value
    /// with a shift it derives once from the validated bus width.
    #[must_use]
    pub fn burst_cycles(&self, bytes: u32) -> Cycle {
        if bytes == 0 {
            return 0;
        }
        let per_cycle = self.bus_bytes_per_cpu_cycle().max(1);
        Cycle::from(bytes.div_ceil(per_cycle)).max(1)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: zero-sized
    /// or non-power-of-two geometry (channels, ranks, banks, row size),
    /// a bus width that is zero or not a whole number of bytes, or bus
    /// bytes per CPU cycle that are not a power of two. The powers of two
    /// let the module decode addresses and size bursts with shifts and
    /// masks instead of divisions.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.ranks_per_channel == 0 || self.banks_per_rank == 0 {
            return Err("geometry dimensions must be non-zero".into());
        }
        for (what, n) in [
            ("channel count", self.channels),
            ("ranks per channel", self.ranks_per_channel),
            ("banks per rank", self.banks_per_rank),
        ] {
            if !n.is_power_of_two() {
                return Err(format!("{what} {n} is not a power of two"));
            }
        }
        if !self.row_bytes.is_power_of_two() {
            return Err(format!("row size {} is not a power of two", self.row_bytes));
        }
        if self.bus_bits == 0 || !self.bus_bits.is_multiple_of(8) {
            return Err(format!(
                "bus width {} must be a non-zero multiple of 8",
                self.bus_bits
            ));
        }
        if self.cpu_per_dram_clk == 0 {
            return Err("cpu_per_dram_clk must be non-zero".into());
        }
        let per_cycle = self.bus_bytes_per_cpu_cycle();
        if !per_cycle.is_power_of_two() {
            return Err(format!(
                "bus moves {per_cycle} bytes per CPU cycle, not a power of two"
            ));
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::stacked(2, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacked_bus_moves_64_bytes_in_4_cpu_cycles() {
        // 128-bit bus: 16 B/beat, 2 beats/DRAM clock = 32 B/DRAM clock
        // = 16 B per CPU cycle at ratio 2.
        let c = DramConfig::stacked(2, 8);
        assert_eq!(c.bus_bytes_per_cpu_cycle(), 16);
        assert_eq!(c.burst_cycles(64), 4);
    }

    #[test]
    fn ddr3_bus_moves_64_bytes_in_8_cpu_cycles() {
        // 64-bit bus: BL=4 DRAM clocks for 64 B (paper Table IV), which is
        // 8 CPU cycles at the 2:1 ratio.
        let c = DramConfig::ddr3(1, 2);
        assert_eq!(c.burst_cycles(64), 8);
    }

    #[test]
    fn burst_cycles_zero_bytes_is_zero() {
        let c = DramConfig::default();
        assert_eq!(c.burst_cycles(0), 0);
    }

    #[test]
    fn burst_cycles_rounds_up() {
        let c = DramConfig::stacked(1, 8);
        assert_eq!(c.burst_cycles(1), 1);
        assert_eq!(c.burst_cycles(17), 2);
    }

    #[test]
    fn total_banks_counts_all_dimensions() {
        let c = DramConfig::ddr3(2, 4);
        assert_eq!(c.total_banks(), 2 * 4 * 8);
    }

    #[test]
    fn default_config_validates() {
        assert!(DramConfig::default().validate().is_ok());
        assert!(DramConfig::ddr3(4, 8).validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let c = DramConfig {
            channels: 0,
            ..DramConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DramConfig {
            row_bytes: 1000,
            ..DramConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DramConfig {
            bus_bits: 12,
            ..DramConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_requires_power_of_two_geometry_and_bus_rate() {
        let base = DramConfig::default();
        for (c, want) in [
            (
                DramConfig {
                    channels: 3,
                    ..base.clone()
                },
                "channel count 3",
            ),
            (
                DramConfig {
                    ranks_per_channel: 6,
                    ..base.clone()
                },
                "ranks per channel 6",
            ),
            (
                DramConfig {
                    banks_per_rank: 12,
                    ..base.clone()
                },
                "banks per rank 12",
            ),
            // 96-bit bus: 12 bytes per CPU cycle at the 2:1 clock ratio.
            (
                DramConfig {
                    bus_bits: 96,
                    ..base.clone()
                },
                "12 bytes per CPU cycle",
            ),
            // 128-bit bus at a 3:1 ratio: 32 / 3 = 10 bytes per CPU cycle.
            (
                DramConfig {
                    cpu_per_dram_clk: 3,
                    ..base.clone()
                },
                "10 bytes per CPU cycle",
            ),
            // 64-bit bus at a 32:1 ratio moves no whole byte per cycle.
            (
                DramConfig {
                    bus_bits: 64,
                    cpu_per_dram_clk: 32,
                    ..base.clone()
                },
                "0 bytes per CPU cycle",
            ),
        ] {
            let err = c.validate().expect_err(want);
            assert!(err.contains(want), "{want}: {err}");
        }
        // Every configuration the backends build passes: 8, 16 or 32 B
        // per cycle, 1-8 channels, 8 or 16 banks.
        for b in crate::BackendKind::ALL {
            for ch in [1, 2, 4, 8] {
                b.backend().stacked(ch, 8).validate().expect("stacked");
                b.backend().offchip(ch, 2).validate().expect("offchip");
            }
        }
    }
}
