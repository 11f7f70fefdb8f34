//! Shift/delay-unit control fields.
//!
//! Paper §2: "Two shift/delay units are provided to aid in reformatting
//! memory data into multiple vector streams." An SDU takes the one stream
//! the switch routes to it and re-emits it on up to four taps, each delayed
//! by a programmable element count. Fourteen-bit delays cover the pinned
//! 16 Ki-word internal buffer, enough to reach `2*nx*ny` for 64 x 64 grid
//! planes — the delay needed to turn one array stream into all six
//! neighbour streams of a 3-D stencil.

use crate::bits::{BitReader, BitUnderflow, BitWriter};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One output tap of a shift/delay unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SduTapField {
    /// Whether this tap emits a stream.
    pub enabled: bool,
    /// Delay in elements relative to the input stream.
    pub delay: u16,
}

impl SduTapField {
    const DELAY_BITS: u32 = 14;
    /// Encoded width of one tap.
    pub const BITS: u32 = 1 + Self::DELAY_BITS;
    /// Leaf fields (enable, delay).
    pub const LEAF_FIELDS: usize = 2;

    /// A silent tap.
    pub fn off() -> Self {
        SduTapField { enabled: false, delay: 0 }
    }

    /// A live tap with the given element delay.
    pub fn delayed(delay: u16) -> Self {
        SduTapField { enabled: true, delay }
    }

    /// Pack into the writer.
    pub fn encode(&self, w: &mut BitWriter) {
        w.write_bool(self.enabled);
        w.write(self.delay as u64, Self::DELAY_BITS);
    }

    /// Unpack from the reader.
    pub fn decode(r: &mut BitReader) -> Result<Self, BitUnderflow> {
        Ok(SduTapField { enabled: r.read_bool()?, delay: r.read(Self::DELAY_BITS)? as u16 })
    }
}

impl Default for SduTapField {
    fn default() -> Self {
        Self::off()
    }
}

/// More delays asked of a shift/delay unit than it has taps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyTaps {
    /// How many delays were asked for.
    pub delays: usize,
}

impl fmt::Display for TooManyTaps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "an SDU has four taps, not {}", self.delays)
    }
}

impl std::error::Error for TooManyTaps {}

/// Complete control for one shift/delay unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SduField {
    /// Whether the unit consumes its routed input this instruction.
    pub enabled: bool,
    /// The four output taps.
    pub taps: [SduTapField; 4],
}

impl SduField {
    /// Encoded width of one SDU field.
    pub const BITS: u32 = 1 + 4 * SduTapField::BITS;
    /// Leaf fields (enable + 4 taps x 2).
    pub const LEAF_FIELDS: usize = 1 + 4 * SduTapField::LEAF_FIELDS;

    /// An idle unit.
    pub fn idle() -> Self {
        Self::default()
    }

    /// A unit emitting the given delays on consecutive taps, or
    /// [`TooManyTaps`] when there are more delays than taps.
    pub fn with_delays(delays: &[u16]) -> Result<Self, TooManyTaps> {
        let mut taps = [SduTapField::off(); 4];
        if delays.len() > taps.len() {
            return Err(TooManyTaps { delays: delays.len() });
        }
        for (t, &d) in taps.iter_mut().zip(delays) {
            *t = SduTapField::delayed(d);
        }
        Ok(SduField { enabled: !delays.is_empty(), taps })
    }

    /// The largest enabled delay (the unit's working set in its buffer).
    pub fn max_delay(&self) -> u16 {
        self.taps.iter().filter(|t| t.enabled).map(|t| t.delay).max().unwrap_or(0)
    }

    /// Pack into the writer.
    pub fn encode(&self, w: &mut BitWriter) {
        w.write_bool(self.enabled);
        for t in &self.taps {
            t.encode(w);
        }
    }

    /// Unpack from the reader.
    pub fn decode(r: &mut BitReader) -> Result<Self, BitUnderflow> {
        let enabled = r.read_bool()?;
        let mut taps = [SduTapField::off(); 4];
        for t in &mut taps {
            *t = SduTapField::decode(r)?;
        }
        Ok(SduField { enabled, taps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn with_delays_enables_consecutive_taps() {
        let s = SduField::with_delays(&[0, 63, 4095]).unwrap();
        assert!(s.enabled);
        assert!(s.taps[0].enabled && s.taps[0].delay == 0);
        assert!(s.taps[1].enabled && s.taps[1].delay == 63);
        assert!(s.taps[2].enabled && s.taps[2].delay == 4095);
        assert!(!s.taps[3].enabled);
        assert_eq!(s.max_delay(), 4095);
    }

    #[test]
    fn empty_delays_keep_unit_idle() {
        let s = SduField::with_delays(&[]).unwrap();
        assert!(!s.enabled);
        assert_eq!(s.max_delay(), 0);
    }

    #[test]
    fn five_delays_are_an_error() {
        let err = SduField::with_delays(&[1, 2, 3, 4, 5]).unwrap_err();
        assert_eq!(err, TooManyTaps { delays: 5 });
        assert_eq!(err.to_string(), "an SDU has four taps, not 5");
        assert!(SduField::with_delays(&[1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn stencil_delays_fit_the_field() {
        // 2*nx*ny for the largest supported plane (64x64) must encode.
        let d = 2 * 64 * 64u16;
        let s = SduField::with_delays(&[d]).unwrap();
        let mut w = BitWriter::new();
        s.encode(&mut w);
        let bytes = w.finish();
        assert_eq!(SduField::decode(&mut BitReader::new(&bytes)).unwrap(), s);
    }

    proptest! {
        #[test]
        fn prop_sdu_round_trips(
            enabled in any::<bool>(),
            t0 in (any::<bool>(), 0u16..(1<<14)),
            t1 in (any::<bool>(), 0u16..(1<<14)),
            t2 in (any::<bool>(), 0u16..(1<<14)),
            t3 in (any::<bool>(), 0u16..(1<<14)),
        ) {
            let mk = |(e, d): (bool, u16)| SduTapField { enabled: e, delay: d };
            let s = SduField { enabled, taps: [mk(t0), mk(t1), mk(t2), mk(t3)] };
            let mut w = BitWriter::new();
            s.encode(&mut w);
            prop_assert_eq!(w.len_bits(), SduField::BITS as usize);
            let bytes = w.finish();
            prop_assert_eq!(SduField::decode(&mut BitReader::new(&bytes)).unwrap(), s);
        }
    }
}
