//! Attack demo: run the paper's threat model against the live system.
//!
//! Three adversaries, three outcomes:
//! 1. against **unprotected** lookups (Figure 1's strawman), frequency
//!    analysis recovers users' hottest private feature values exactly;
//! 2. against **FEDORA's main ORAM**, the same adversary sees only
//!    uniform path leaves and drops to chance;
//! 3. against the **access count** `k`, the optimal distinguisher's
//!    success tracks — and never exceeds — the ε-FDP bound.
//!
//! Run with: `cargo run --release -p fedora --example attack_demo`

use fedora::adversary::{count_attack, dp_success_bound, frequency_attack, trace_attack};
use fedora_crypto::aead::Key;
use fedora_fdp::{FdpMechanism, YShape};
use fedora_oram::raw::{RawOram, RawOramConfig};
use fedora_oram::store::SsdBucketStore;
use fedora_oram::TreeGeometry;
use fedora_storage::profile::SsdProfile;
use fedora_storage::AccessTraceRecorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLE: u64 = 1024;
const ACCESSES: usize = 5000;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // The users' secret: rows 3, 7, 11, 13 are the hottest feature values
    // (say, the four most-purchased items this round).
    let hot = [3u64, 7, 11, 13];
    let accesses: Vec<u64> = (0..ACCESSES)
        .map(|_| {
            if rng.gen_bool(0.6) {
                hot[rng.gen_range(0..hot.len())]
            } else {
                rng.gen_range(0..TABLE)
            }
        })
        .collect();

    // --- 1. Unprotected lookups: addresses = row ids. ---
    let recovered = frequency_attack(&accesses, &hot);
    println!("1. No protection (Figure 1 strawman):");
    println!(
        "   adversary recovers {:.0}% of the hot feature values\n",
        recovered * 100.0
    );

    // --- 2. The same workload through FEDORA's main ORAM. ---
    let geo = TreeGeometry::for_blocks(TABLE, 16, 8);
    let store = SsdBucketStore::new(geo, Key::from_bytes([9; 32]), SsdProfile::default());
    let mut oram = RawOram::new(
        store,
        TABLE,
        RawOramConfig {
            eviction_period: 16,
        },
        |_| vec![0u8; 16],
        &mut rng,
    );
    let recorder = AccessTraceRecorder::new();
    oram.store_mut().set_access_recorder(recorder.clone());
    for &id in &accesses {
        let blk = oram.fetch(id, &mut rng).expect("fetch");
        oram.insert(id, blk.payload, &mut rng).expect("insert");
    }
    // The device sees each fetch as a path read that is never written
    // back (evictions write theirs); its last bucket is the leaf.
    let leaves: Vec<u64> = oram
        .store()
        .observed_paths(&recorder.take())
        .into_iter()
        .filter_map(|(leaf, written)| (!written).then_some(leaf))
        .collect();
    let recovered = trace_attack(&leaves, &hot);
    println!("2. Through FEDORA's main ORAM (adversary sees path leaves):");
    println!(
        "   adversary recovers {:.0}% of the hot values (chance ≈ {:.1}%)\n",
        recovered * 100.0,
        hot.len() as f64 / geo.num_leaves() as f64 * 100.0
    );

    // --- 3. The access count under ε-FDP. ---
    println!("3. Optimal distinguisher on the access count k (30 vs 31 unique):");
    println!(
        "   {:>8} {:>18} {:>14}",
        "eps", "attack success", "DP bound"
    );
    for eps in [0.1, 0.5, 1.0, 2.0, f64::INFINITY] {
        let mech = if eps.is_infinite() {
            FdpMechanism::no_privacy()
        } else {
            FdpMechanism::new(eps, YShape::Uniform).expect("valid")
        };
        let out = count_attack(&mech, 30, 100, 20_000, &mut rng);
        let label = if eps.is_infinite() {
            "inf".into()
        } else {
            format!("{eps}")
        };
        println!(
            "   {:>8} {:>17.1}% {:>13.1}%",
            label,
            out.success_rate * 100.0,
            dp_success_bound(eps) * 100.0
        );
    }
    println!("\nThe measured success hugs the e^eps/(1+e^eps) curve and never");
    println!("exceeds it — the executable form of the Section 3 proof.");
}
