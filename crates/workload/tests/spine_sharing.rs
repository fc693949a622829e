//! What a new schema version copies is pinned by counts, not timings:
//! on the seed-42 1000-type ORION lattice (the benchmark lattice), a fresh
//! clone shares every spine chunk and every name-index shard with its
//! source, and a small edit unshares only the chunks and shards it wrote.

use axiombase_core::{EngineKind, LatticeConfig, Schema, TypeId};
use axiombase_workload::LatticeGen;

fn base() -> Schema {
    LatticeGen {
        types: 1000,
        max_parents: 3,
        props_per_type: 1.5,
        redeclare_prob: 0.1,
        seed: 42,
    }
    .generate(LatticeConfig::ORION, EngineKind::Incremental)
    .schema
}

/// A live type with no subtypes.
fn leaf(s: &Schema) -> TypeId {
    s.iter_types()
        .find(|&t| s.essential_subtypes(t).unwrap().is_empty())
        .expect("a finite lattice has a leaf")
}

#[test]
fn a_fresh_clone_shares_everything() {
    let base = base();
    let next = base.clone();
    let sharing = next.sharing_with(&base);
    // Four spines over 1001 type slots or ~1500 properties: dozens of
    // chunks, every one of them shared.
    assert!(sharing.chunks >= 4 * 1001 / 64, "{sharing:?}");
    assert_eq!(sharing.shared_chunks, sharing.chunks, "{sharing:?}");
    assert_eq!(sharing.shared_shards, sharing.shards, "{sharing:?}");
}

#[test]
fn a_leaf_property_add_unshares_two_chunks() {
    let base = base();
    let t = leaf(&base);
    let iface = base.interface(t).unwrap();
    let p = base
        .iter_props()
        .find(|p| !iface.contains(p))
        .expect("some property is outside the leaf's interface");
    let mut next = base.clone();
    next.add_essential_property(t, p).unwrap();
    let sharing = next.sharing_with(&base);
    // The leaf's slot chunk (its `N_e`) and its derived-row chunk (its
    // `N`/`I`); the property registry, the reverse index and the name
    // index are untouched.
    assert_eq!(sharing.chunks - sharing.shared_chunks, 2, "{sharing:?}");
    assert_eq!(sharing.shared_shards, sharing.shards, "{sharing:?}");
    // The source version is unchanged.
    assert!(!base.interface(t).unwrap().contains(&p));
    assert!(next.interface(t).unwrap().contains(&p));
}

#[test]
fn a_type_add_and_drop_copy_at_most_one_name_shard() {
    let base = base();
    let parent = leaf(&base);
    let mut next = base.clone();
    let t = next.add_type("T_spine_probe", [parent], []).unwrap();
    next.drop_type(t).unwrap();
    let sharing = next.sharing_with(&base);
    assert!(sharing.shards - sharing.shared_shards <= 1, "{sharing:?}");
    // The slot, derived-row and reverse-index tail chunks (the new type's
    // records) and the chunk of the parent's reverse-index row. The arena
    // keeps the dead slot, so no chunk goes back to being shared.
    assert_eq!(sharing.chunks - sharing.shared_chunks, 4, "{sharing:?}");
    assert_eq!(base.type_by_name("T_spine_probe"), None);
    assert_eq!(next.type_by_name("T_spine_probe"), None);
    assert_eq!(next.fingerprint(), base.fingerprint());
}
