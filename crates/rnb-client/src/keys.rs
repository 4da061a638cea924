//! Item-id ↔ wire-key mapping.

use rnb_hash::ItemId;

/// The wire key of an item id (`item:<decimal>`).
pub fn item_key(item: ItemId) -> Vec<u8> {
    let mut key = Vec::new();
    push_item_key(item, &mut key);
    key
}

/// Append the wire key of `item` to `out` (no allocation once `out` has
/// room).
pub(crate) fn push_item_key(item: ItemId, out: &mut Vec<u8>) {
    // Writing into a `Vec<u8>` cannot fail.
    let _ = std::io::Write::write_fmt(out, format_args!("item:{item}"));
}

/// Parse a wire key back to an item id (for tooling and tests).
pub fn parse_item_key(key: &[u8]) -> Option<ItemId> {
    let text = std::str::from_utf8(key).ok()?;
    text.strip_prefix("item:")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for item in [0u64, 1, 42, u64::MAX] {
            assert_eq!(parse_item_key(&item_key(item)), Some(item));
        }
    }

    #[test]
    fn rejects_foreign_keys() {
        assert_eq!(parse_item_key(b"other:1"), None);
        assert_eq!(parse_item_key(b"item:abc"), None);
        assert_eq!(parse_item_key(&[0xff]), None);
    }
}
