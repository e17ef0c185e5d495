//! The workspace has two CRC-32 implementations: hs-fabric's (every wire
//! frame) and hs-wal's (every log record). ROADMAP item 5 merges them into
//! one codec crate; until then this crate — the one that sees both — pins
//! them to the same function, so the merge cannot change a byte on the wire
//! or on disk.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn fabric_and_wal_crc32_agree(data in proptest::collection::vec(any::<u8>(), 0..20_000), start in 0usize..16) {
        let d = &data[start.min(data.len())..];
        prop_assert_eq!(hs_fabric::proto::crc32(d), hs_wal::crc32(d));
    }
}

#[test]
fn both_crcs_are_ieee() {
    assert_eq!(hs_fabric::proto::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(hs_wal::crc32(b"123456789"), 0xCBF4_3926);
}
