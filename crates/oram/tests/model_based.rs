//! Model-based property tests: each ORAM is driven with arbitrary
//! operation sequences and compared against a plain `HashMap` model. Any
//! divergence between the oblivious structure and the trivial model is a
//! correctness bug.

use std::collections::HashMap;

use fedora_crypto::aead::Key;
use fedora_oram::buffer::BufferOram;
use fedora_oram::path_oram::PathOram;
use fedora_oram::raw::{RawOram, RawOramConfig};
use fedora_oram::store::DramBucketStore;
use fedora_oram::TreeGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BLOCKS: u64 = 64;
const BLOCK_BYTES: usize = 8;

/// An abstract operation against a key-value ORAM.
#[derive(Debug)]
enum Op {
    Read(u64),
    Write(u64, u8),
    Dummy,
}

/// Each test's case count: every case runs a whole ORAM, so fewer than
/// the 256 of the cheaper property tests.
const CASES: u64 = 24;

/// `1..120` operations, each a read, a write or a dummy with equal odds.
fn random_ops(rng: &mut StdRng) -> Vec<Op> {
    (0..rng.gen_range(1..120))
        .map(|_| match rng.gen_range(0..3) {
            0 => Op::Read(rng.gen_range(0..BLOCKS)),
            1 => Op::Write(rng.gen_range(0..BLOCKS), rng.gen()),
            _ => Op::Dummy,
        })
        .collect()
}

#[test]
fn path_oram_matches_hashmap() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let ops = random_ops(&mut rng);
        let geo = TreeGeometry::for_blocks(BLOCKS, BLOCK_BYTES, 4);
        let store = DramBucketStore::with_default_dram(geo, Key::from_bytes([1; 32]));
        let mut oram = PathOram::new(store, BLOCKS, &mut rng);
        let mut model: HashMap<u64, u8> = HashMap::new();

        for op in ops {
            match op {
                Op::Read(id) => {
                    let got = oram.read(id, &mut rng).expect("read");
                    let want = model.get(&id).copied().unwrap_or(0);
                    assert_eq!(got[0], want, "case {case}: block {id} diverged");
                }
                Op::Write(id, v) => {
                    oram.write(id, vec![v; BLOCK_BYTES], &mut rng)
                        .expect("write");
                    model.insert(id, v);
                }
                Op::Dummy => oram.dummy_access(&mut rng).expect("dummy"),
            }
        }
        // Full final audit.
        for id in 0..BLOCKS {
            let got = oram.read(id, &mut rng).expect("read");
            let want = model.get(&id).copied().unwrap_or(0);
            assert_eq!(got[0], want, "case {case}: block {id} diverged");
        }
    }
}

#[test]
fn raw_oram_matches_hashmap() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let ops = random_ops(&mut rng);
        let a = rng.gen_range(1u32..12);
        let geo = TreeGeometry::for_blocks(BLOCKS, BLOCK_BYTES, 8);
        let store = DramBucketStore::with_default_dram(geo, Key::from_bytes([2; 32]));
        let mut oram = RawOram::new(
            store,
            BLOCKS,
            RawOramConfig { eviction_period: a },
            |_| vec![0u8; BLOCK_BYTES],
            &mut rng,
        );
        let mut model: HashMap<u64, u8> = HashMap::new();

        for op in ops {
            match op {
                Op::Read(id) => {
                    let blk = oram.fetch(id, &mut rng).expect("fetch");
                    let want = model.get(&id).copied().unwrap_or(0);
                    assert_eq!(blk.payload[0], want, "case {case}: block {id} diverged");
                    oram.insert(id, blk.payload, &mut rng).expect("insert");
                }
                Op::Write(id, v) => {
                    oram.fetch(id, &mut rng).expect("fetch");
                    oram.insert(id, vec![v; BLOCK_BYTES], &mut rng)
                        .expect("insert");
                    model.insert(id, v);
                }
                Op::Dummy => oram.dummy_fetch(&mut rng).expect("dummy"),
            }
        }
        // Every bucket authenticates at the counter its EO count derives.
        assert!(oram.scrub().is_clean(), "case {case}");
        // Final audit via the FEDORA phase pair.
        for id in 0..BLOCKS {
            let blk = oram.fetch(id, &mut rng).expect("fetch");
            let want = model.get(&id).copied().unwrap_or(0);
            assert_eq!(blk.payload[0], want, "case {case}: block {id} diverged");
            oram.insert(id, blk.payload, &mut rng).expect("insert");
        }
    }
}

#[test]
fn buffer_oram_matches_model() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let loads: Vec<(u64, u8)> = (0..rng.gen_range(1..24))
            .map(|_| (rng.gen_range(0..1000), rng.gen()))
            .collect();
        let aggs: Vec<(usize, f32)> = (0..rng.gen_range(0..48))
            .map(|_| (rng.gen_range(0..24), rng.gen_range(-10.0..10.0)))
            .collect();
        let mut buf = BufferOram::new(32, 8, Key::from_bytes([3; 32]), &mut rng);
        // Model: id -> (entry byte, grad sum, weight).
        let mut model: Vec<(u64, u8, f32, f64)> = Vec::new();
        for (id, v) in &loads {
            if model.iter().any(|(mid, ..)| mid == id) {
                continue; // protocol loads each unique id once
            }
            model.push((*id, *v, 0.0, 0.0));
        }
        let slots = model.iter().map(|&(id, v, ..)| Some((id, vec![v; 8])));
        buf.load_round(slots.collect(), &mut rng)
            .expect("capacity 32 >= 24");
        for (slot, g) in &aggs {
            let idx = *slot % model.len();
            let (id, _, grad, weight) = &mut model[idx];
            buf.aggregate(*id, &[*g, 0.0], 1.0, &mut rng)
                .expect("loaded");
            *grad += *g;
            *weight += 1.0;
        }
        let drained = buf.drain_round().expect("drain");
        assert_eq!(drained.entries.len(), model.len(), "case {case}");
        for want in &model {
            let got = drained
                .entries
                .iter()
                .find(|e| e.id == want.0)
                .expect("present");
            assert_eq!(got.entry[0], want.1, "case {case}: id {}", want.0);
            assert!(
                (got.gradient[0] - want.2).abs() < 1e-4,
                "case {case}: id {} gradient",
                want.0
            );
            assert!(
                (got.weight - want.3).abs() < 1e-4,
                "case {case}: id {} weight",
                want.0
            );
        }
    }
}
