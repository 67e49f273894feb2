//! Physical-address to DRAM-coordinate interleaving.
//!
//! The paper's memory controller interleaves addresses as
//! `row : rank : bank : mc(channel) : column` from most- to
//! least-significant bits (Table IV). Consecutive row-sized chunks of the
//! physical address space therefore rotate across channels, then banks,
//! then ranks, maximizing bank-level parallelism for streaming access.

use crate::config::DramConfig;
use crate::request::Location;

/// Decodes physical addresses into DRAM module coordinates using the
/// `row-rank-bank-mc-column` interleave.
/// # Example
///
/// ```
/// use bimodal_dram::{AddressMapping, DramConfig};
///
/// let m = AddressMapping::new(&DramConfig::ddr3(2, 2));
/// let d = m.decode(0x1_0000);
/// assert_eq!(m.encode_row(d.loc) + u64::from(d.column), 0x1_0000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMapping {
    channels: u64,
    ranks: u64,
    banks: u64,
    row_bytes: u64,
    column_bits: u32,
    channel_bits: u32,
    bank_bits: u32,
    rank_bits: u32,
}

/// A fully decoded address: bank coordinates plus the byte offset within
/// the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddress {
    /// Bank coordinates and row.
    pub loc: Location,
    /// Byte offset within the row.
    pub column: u32,
}

impl AddressMapping {
    /// Builds a mapping for the given module geometry.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails: every field is a power of two
    /// there, so each decode step is a mask and a shift.
    #[must_use]
    pub fn new(config: &DramConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid DRAM configuration: {e}");
        }
        AddressMapping {
            channels: u64::from(config.channels),
            ranks: u64::from(config.ranks_per_channel),
            banks: u64::from(config.banks_per_rank),
            row_bytes: u64::from(config.row_bytes),
            column_bits: config.row_bytes.trailing_zeros(),
            channel_bits: config.channels.trailing_zeros(),
            bank_bits: config.banks_per_rank.trailing_zeros(),
            rank_bits: config.ranks_per_channel.trailing_zeros(),
        }
    }

    /// Decodes a physical byte address.
    #[must_use]
    pub fn decode(&self, addr: u64) -> DecodedAddress {
        let column = addr & (self.row_bytes - 1);
        let mut rest = addr >> self.column_bits;
        let channel = rest & (self.channels - 1);
        rest >>= self.channel_bits;
        let bank = rest & (self.banks - 1);
        rest >>= self.bank_bits;
        let rank = rest & (self.ranks - 1);
        rest >>= self.rank_bits;
        let row = rest;
        DecodedAddress {
            loc: Location::new(channel as u32, rank as u32, bank as u32, row),
            column: column as u32,
        }
    }

    /// Re-encodes coordinates into the physical address of the row start
    /// (inverse of [`AddressMapping::decode`] with `column == 0`).
    #[must_use]
    pub fn encode_row(&self, loc: Location) -> u64 {
        let mut rest = loc.row;
        rest = rest * self.ranks + u64::from(loc.rank);
        rest = rest * self.banks + u64::from(loc.bank);
        rest = rest * self.channels + u64::from(loc.channel);
        rest << self.column_bits
    }

    /// Number of bits consumed by the column (row offset) field.
    #[must_use]
    pub fn column_bits(&self) -> u32 {
        self.column_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> AddressMapping {
        AddressMapping::new(&DramConfig::ddr3(2, 2))
    }

    #[test]
    fn column_is_low_bits() {
        let m = mapping();
        let d = m.decode(0x1234);
        assert_eq!(d.column, 0x1234 % 2048);
    }

    #[test]
    fn consecutive_rows_rotate_channels_first() {
        let m = mapping();
        let a = m.decode(0);
        let b = m.decode(2048);
        assert_ne!(a.loc.channel, b.loc.channel);
        assert_eq!(a.loc.bank, b.loc.bank);
        assert_eq!(a.loc.row, b.loc.row);
    }

    #[test]
    fn then_banks_then_ranks_then_rows() {
        let m = mapping(); // 2 channels, 8 banks, 2 ranks
        let stride = 2048u64;
        let after_channels = m.decode(2 * stride);
        assert_eq!(after_channels.loc.channel, 0);
        assert_eq!(after_channels.loc.bank, 1);

        let after_banks = m.decode(2 * 8 * stride);
        assert_eq!(after_banks.loc.bank, 0);
        assert_eq!(after_banks.loc.rank, 1);

        let after_ranks = m.decode(2 * 8 * 2 * stride);
        assert_eq!(after_ranks.loc.rank, 0);
        assert_eq!(after_ranks.loc.row, 1);
    }

    #[test]
    fn encode_is_inverse_of_decode() {
        let m = mapping();
        for addr in [0u64, 2048, 4096, 1 << 20, (1 << 33) + 6144] {
            let d = m.decode(addr);
            assert_eq!(m.encode_row(d.loc) + u64::from(d.column), addr);
        }
    }

    /// The `%` and `/` decode the masks and shifts replaced.
    fn decode_by_division(m: &AddressMapping, addr: u64) -> DecodedAddress {
        let column = addr % m.row_bytes;
        let mut rest = addr / m.row_bytes;
        let channel = rest % m.channels;
        rest /= m.channels;
        let bank = rest % m.banks;
        rest /= m.banks;
        let rank = rest % m.ranks;
        rest /= m.ranks;
        DecodedAddress {
            loc: Location::new(channel as u32, rank as u32, bank as u32, rest),
            column: column as u32,
        }
    }

    #[test]
    fn shift_decode_matches_division_on_every_backend() {
        let mut rng = 0xB10DA1;
        for b in crate::BackendKind::ALL {
            for config in [b.backend().stacked(2, 8), b.backend().offchip(4, 2)] {
                let m = AddressMapping::new(&config);
                for _ in 0..20_000 {
                    let addr = crate::test_draw(&mut rng) >> 1;
                    let d = m.decode(addr);
                    assert_eq!(d, decode_by_division(&m, addr), "{} {addr:#x}", b.name());
                    assert_eq!(m.encode_row(d.loc) + u64::from(d.column), addr);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel count 3 is not a power of two")]
    fn non_power_of_two_geometry_is_refused() {
        let _ = AddressMapping::new(&DramConfig::ddr3(3, 2));
    }

    #[test]
    fn same_row_addresses_share_coordinates() {
        let m = mapping();
        let a = m.decode(0x4_0000);
        let b = m.decode(0x4_0000 + 100);
        assert_eq!(a.loc, b.loc);
    }
}
