//! Stored values and the correctness checker.
//!
//! Every value is [`VALUE_LEN`] bytes: a header naming `(item, version)`
//! and a filler derived from both, so a read can be judged on its own
//! bytes. A value that is not exactly the encoding of its header, or
//! names another item, is corrupt; one whose version is older than the
//! latest version written is stale.

use std::io::Write;

/// Bytes per stored value.
pub const VALUE_LEN: usize = 100;

/// Bytes of the `item=… ver=… ` header.
const HEADER_LEN: usize = 41;

/// The value stored for `item` at `version`.
pub fn encode(item: u64, version: u32) -> Vec<u8> {
    encode_into(item, version).to_vec()
}

/// [`encode`] into a stack buffer: the checker runs on every returned
/// item, so it must not allocate.
fn encode_into(item: u64, version: u32) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    let mut header = &mut v[..HEADER_LEN];
    // Fits exactly: 5 + 20 + 1 + 4 + 10 + 1 bytes.
    write!(header, "item={item:020} ver={version:010} ").expect("header is 41 bytes");
    let mut x = item.rotate_left(17) ^ u64::from(version);
    for b in &mut v[HEADER_LEN..] {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        *b = b'a' + (x >> 60) as u8;
    }
    v
}

/// `(item, version)` of an intact value, `None` for anything else.
pub fn decode(value: &[u8]) -> Option<(u64, u32)> {
    let header = std::str::from_utf8(value.get(..HEADER_LEN - 1)?).ok()?;
    let item = header.strip_prefix("item=")?.get(..20)?.parse().ok()?;
    let version = header.get(26..)?.strip_prefix("ver=")?.parse().ok()?;
    (encode_into(item, version) == value).then_some((item, version))
}

/// How one returned item compares with what was last written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The fleet answered "not found".
    Miss,
    /// An intact value of the right item, but not its latest version.
    Stale,
    /// Bytes that are not a value of this item.
    Corrupt,
}

/// The latest version written per item.
pub struct Checker {
    latest: Vec<u32>,
}

impl Checker {
    /// Every item of `0..items` starts at version 0 (the preload).
    pub fn new(items: usize) -> Checker {
        Checker {
            latest: vec![0; items],
        }
    }

    pub fn latest(&self, item: u64) -> u32 {
        self.latest[item as usize]
    }

    /// Record that `item` now holds `version`.
    pub fn written(&mut self, item: u64, version: u32) {
        self.latest[item as usize] = version;
    }

    pub fn verdict(&self, item: u64, got: Option<&[u8]>) -> Verdict {
        let Some(bytes) = got else {
            return Verdict::Miss;
        };
        match decode(bytes) {
            Some((i, v)) if i == item && v == self.latest(item) => Verdict::Ok,
            Some((i, v)) if i == item && v < self.latest(item) => Verdict::Stale,
            _ => Verdict::Corrupt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_at_fixed_length() {
        for (item, version) in [(0, 0), (82_167, 3), (1 << 40, 4_000_000_000)] {
            let v = encode(item, version);
            assert_eq!(v.len(), VALUE_LEN);
            assert_eq!(decode(&v), Some((item, version)));
        }
    }

    #[test]
    fn checker_catches_corrupted_and_stale_values() {
        let mut checker = Checker::new(10);
        checker.written(7, 2);
        assert_eq!(checker.verdict(7, Some(&encode(7, 2))), Verdict::Ok);

        // One flipped byte anywhere in the value.
        for pos in [0, 10, 50, VALUE_LEN - 1] {
            let mut corrupted = encode(7, 2);
            corrupted[pos] ^= 0x01;
            assert_eq!(checker.verdict(7, Some(&corrupted)), Verdict::Corrupt);
        }
        // Truncated, and another item's intact value.
        assert_eq!(
            checker.verdict(7, Some(&encode(7, 2)[1..])),
            Verdict::Corrupt
        );
        assert_eq!(checker.verdict(7, Some(&encode(6, 2))), Verdict::Corrupt);
        // A version from the future is not stale: it was never written.
        assert_eq!(checker.verdict(7, Some(&encode(7, 3))), Verdict::Corrupt);

        assert_eq!(checker.verdict(7, Some(&encode(7, 1))), Verdict::Stale);
        assert_eq!(checker.verdict(7, None), Verdict::Miss);
    }
}
