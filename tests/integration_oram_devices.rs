//! ORAM ↔ device integration: RAW ORAM over the simulated SSD, the
//! Merkle-free counter scheme, wear accounting, and lifetime projection
//! consistency between the simulated device and the analytic model.

use fedora::analytic::{fedora_round, lifetime_months};
use fedora_crypto::aead::Key;
use fedora_crypto::counter::EvictionSchedule;
use fedora_crypto::IntegrityError;
use fedora_oram::raw::{RawOram, RawOramConfig};
use fedora_oram::store::{BucketStore, SsdBucketStore};
use fedora_oram::{Bucket, OramError, TreeGeometry};
use fedora_storage::profile::SsdProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ssd_raw_oram(blocks: u64, a: u32, seed: u64) -> (RawOram<SsdBucketStore>, StdRng) {
    let geo = TreeGeometry::for_blocks(blocks, 32, 8);
    let store = SsdBucketStore::new(geo, Key::from_bytes([3; 32]), SsdProfile::pm9a1_like());
    let mut rng = StdRng::seed_from_u64(seed);
    let oram = RawOram::new(
        store,
        blocks,
        RawOramConfig { eviction_period: a },
        |id| vec![(id % 256) as u8; 32],
        &mut rng,
    );
    (oram, rng)
}

#[test]
fn raw_oram_works_on_simulated_ssd() {
    let (mut oram, mut rng) = ssd_raw_oram(256, 8, 1);
    for id in (0..256).step_by(7) {
        let blk = oram.fetch(id, &mut rng).expect("fetch");
        assert_eq!(blk.payload[0], (id % 256) as u8);
        oram.insert(id, blk.payload, &mut rng).expect("insert");
    }
    oram.flush(1000).expect("flush");
    // Data still correct after eviction churn.
    for id in (0..256).step_by(13) {
        let blk = oram.fetch(id, &mut rng).expect("fetch");
        assert_eq!(blk.payload[0], (id % 256) as u8);
        oram.insert(id, blk.payload, &mut rng).expect("insert");
    }
}

#[test]
fn ssd_write_counts_follow_eviction_schedule() {
    let (mut oram, mut rng) = ssd_raw_oram(128, 4, 2);
    for round in 0..6 {
        for i in 0..16u64 {
            let id = (i * 5 + round) % 128;
            let blk = oram.fetch(id, &mut rng).expect("fetch");
            oram.insert(id, blk.payload, &mut rng).expect("insert");
        }
    }
    assert!(oram.scrub().is_clean());
    // Spot-check against an independently constructed schedule: the root
    // is written on every EO, so its page authenticates at the EO count
    // and not one below it.
    let geo = oram.store().geometry();
    let schedule = EvictionSchedule::new(geo.depth());
    let eo = oram.eo_count();
    assert_eq!(schedule.writes_to_bucket(0, 0, eo), eo);
    assert!(oram.store_mut().read_bucket(0, eo).is_ok());
    assert!(oram.store_mut().read_bucket(0, eo - 1).is_err());
}

#[test]
fn ao_accesses_never_wear_the_ssd() {
    let (mut oram, mut rng) = ssd_raw_oram(256, 1_000_000, 3); // EO never triggers
    oram.store_mut().reset_device_stats();
    for id in 0..64u64 {
        oram.fetch(id, &mut rng).expect("fetch");
    }
    for _ in 0..64 {
        oram.dummy_fetch(&mut rng).expect("dummy");
    }
    let stats = oram.store().device_stats();
    assert_eq!(stats.bytes_written, 0, "read phase wrote to the SSD");
    assert_eq!(oram.store().ssd().wear_fraction(), 0.0);
}

#[test]
fn wear_projection_consistent_with_analytic_lifetime() {
    let (mut oram, mut rng) = ssd_raw_oram(512, 8, 4);
    oram.store_mut().reset_device_stats();
    let rounds = 10u64;
    let k_per_round = 40u64;
    for _ in 0..rounds {
        for _ in 0..k_per_round {
            let id = rng.gen_range(0..512);
            let blk = oram.fetch(id, &mut rng).expect("fetch");
            oram.insert(id, blk.payload, &mut rng).expect("insert");
        }
    }
    let geo = oram.store().geometry();
    let profile = *oram.store().ssd().profile();
    // Analytic per-round counts at the same k.
    let counts = fedora_round(&geo, k_per_round, 8, profile.page_bytes);
    let analytic = lifetime_months(&profile, &geo, &counts, 120.0);
    // Simulated projection from measured wear at the same cadence, rescaled
    // to the analytic convention (SSD sized to the tree, not to our tiny
    // test device — same thing here since the store sizes the SSD to the
    // tree).
    let projected = oram
        .store()
        .ssd()
        .projected_lifetime_months(rounds as f64 * 120.0);
    let ratio = analytic / projected;
    assert!(
        (0.8..1.25).contains(&ratio),
        "analytic {analytic:.2} vs projected {projected:.2} months (ratio {ratio:.3})"
    );
}

#[test]
fn tampering_with_ssd_bucket_is_detected() {
    // End-to-end integrity: a valid bucket spliced in from another node
    // fails authentication even at the matching counter, because each
    // bucket's node id is its associated data.
    let geo = TreeGeometry::for_blocks(64, 32, 8);
    let mut store = SsdBucketStore::new(geo, Key::from_bytes([5; 32]), SsdProfile::pm9a1_like());
    let empty = Bucket::empty(geo.z(), geo.block_bytes());
    store.write_bucket(3, &empty, 1).expect("seal");
    store.write_bucket(4, &empty, 1).expect("seal");
    let ppb = store.pages_per_bucket();
    let honest = store.ssd().snapshot_page(3 * ppb).expect("page");
    let forged = store.ssd().snapshot_page(4 * ppb).expect("page");
    store
        .ssd_mut()
        .inject_rollback(3 * ppb, &forged)
        .expect("splice");
    assert_eq!(
        store.read_bucket(3, 1),
        Err(OramError::Integrity {
            kind: IntegrityError::Corruption,
            node: 3
        })
    );
    // The honest page still reads back cleanly.
    store
        .ssd_mut()
        .inject_rollback(3 * ppb, &honest)
        .expect("restore");
    assert_eq!(store.read_bucket(3, 1).expect("still clean"), empty);
}

#[test]
fn vtree_stays_in_sync_with_tree_occupancy() {
    let (mut oram, mut rng) = ssd_raw_oram(128, 4, 6);
    // Pull half the blocks out: VTree must reflect exactly 64 valid
    // blocks fewer (they moved to the caller).
    let before: u64 = 128;
    let mut fetched = Vec::new();
    for id in 0..64u64 {
        fetched.push(oram.fetch(id, &mut rng).expect("fetch"));
    }
    // All fetched blocks are gone from the ORAM; the rest remain.
    for blk in fetched {
        oram.insert(blk.id, blk.payload, &mut rng).expect("insert");
    }
    oram.flush(10_000).expect("flush");
    // After a full flush every block is back in the tree (stash empty);
    // fetch each to prove occupancy.
    let mut present = 0u64;
    for id in 0..128u64 {
        let blk = oram.fetch(id, &mut rng).expect("fetch");
        present += 1;
        oram.insert(id, blk.payload, &mut rng).expect("insert");
    }
    assert_eq!(present, before);
}

#[test]
fn ssd_bitflip_detected_end_to_end() {
    // A NAND bit error (or malicious flip) anywhere in a bucket's pages
    // must surface as an integrity failure on the next fetch that reads
    // the bucket's path — never as silently wrong data.
    let (mut oram, mut rng) = ssd_raw_oram(128, 4, 40);
    // Corrupt the root bucket's first page: every path includes the root.
    oram.store_mut()
        .ssd_mut()
        .inject_bitflip(0, 12)
        .expect("in range");
    let result = oram.fetch(0, &mut rng);
    assert!(matches!(
        result,
        Err(fedora_oram::OramError::Integrity {
            kind: fedora_crypto::IntegrityError::Corruption,
            node: 0,
        })
    ));
}

#[test]
fn ssd_rollback_detected_end_to_end() {
    // A replay of an old bucket image fails authentication because the
    // write counter (derivable from the root EO counter) has advanced.
    let (mut oram, mut rng) = ssd_raw_oram(128, 2, 41);
    let snapshot = oram.store().ssd().snapshot_page(0).expect("root page");
    // Advance the ORAM: several insert cycles force EOs that rewrite the
    // root bucket.
    for id in 0..8u64 {
        let blk = oram.fetch(id, &mut rng).expect("fetch");
        oram.insert(id, blk.payload, &mut rng).expect("insert");
    }
    assert!(oram.eo_count() > 0, "EOs must have rewritten the root");
    oram.store_mut()
        .ssd_mut()
        .inject_rollback(0, &snapshot)
        .expect("in range");
    let result = oram.fetch(100, &mut rng);
    // The replayed image authenticates at its original (older) write
    // counter, so the failure is classified as a rollback at the root.
    assert!(matches!(
        result,
        Err(fedora_oram::OramError::Integrity {
            kind: fedora_crypto::IntegrityError::Rollback,
            node: 0,
        })
    ));
}

#[test]
fn recursive_position_map_supports_oram_scale() {
    use fedora_oram::recursive::RecursivePositionMap;
    let mut rng = StdRng::seed_from_u64(50);
    let mut map = RecursivePositionMap::new(2048, 256, Key::from_bytes([7; 32]), &mut rng);
    assert!(map.num_levels() >= 1, "2048 positions must recurse");
    for id in (0..2048).step_by(129) {
        map.set(id, id % 256, &mut rng).expect("set");
    }
    for id in (0..2048).step_by(129) {
        assert_eq!(map.get(id, &mut rng).expect("get"), id % 256);
    }
    assert!(map.accesses() > 0);
    assert!(map.device_stats().bytes_read > 0);
}

#[test]
fn encrypted_position_map_integrates_with_flat_crypto() {
    use fedora_oram::position::EncryptedPositionMap;
    let mut rng = StdRng::seed_from_u64(51);
    let mut map = EncryptedPositionMap::random(1000, 128, Key::from_bytes([8; 32]), &mut rng);
    map.set(999, 127).expect("set");
    assert_eq!(map.get(999).expect("get"), 127);
    // The §5.2 overhead claim at this scale: a few percent, not 25%.
    let overhead = map.stored_bytes() as f64 / (1000.0 * 8.0) - 1.0;
    assert!(overhead < 0.15, "overhead {overhead:.3}");
}
