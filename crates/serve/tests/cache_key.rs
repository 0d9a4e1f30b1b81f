//! Cache-key contract tests (satellite 1).
//!
//! The compile-time half of the guard lives in
//! `adm_serve::request::canonical_request` itself: it destructures
//! `MeshConfig` and every nested parameter struct with no `..` rest
//! pattern, so adding a field to any of them fails this crate's build
//! until the field is classified as mesh identity or execution knob.
//! These tests pin the runtime half of the contract.

use std::path::PathBuf;
use std::sync::Arc;

use adm_core::config::MeshConfig;
use adm_serve::{cache_key, canonical_request, parse_request, RequestError};

#[test]
fn execution_knobs_do_not_change_the_key() {
    let base = MeshConfig::naca0012(24);
    let key = cache_key(&base).unwrap();

    // merge_threads is pure parallelism: the merge tree is
    // pool-width-independent, so any width is the same mesh.
    for threads in [0, 1, 7, 64] {
        let mut c = base.clone();
        c.merge_threads = threads;
        assert_eq!(cache_key(&c).unwrap(), key, "merge_threads={threads}");
    }

    // shard_out is a persistence side effect, not mesh identity.
    let mut c = base.clone();
    c.shard_out = Some(PathBuf::from("/tmp/anywhere"));
    assert_eq!(cache_key(&c).unwrap(), key);

    // Both at once.
    let mut c = base.clone();
    c.merge_threads = 3;
    c.shard_out = Some(PathBuf::from("elsewhere"));
    assert_eq!(cache_key(&c).unwrap(), key);
}

#[test]
fn identity_fields_change_the_key() {
    let base = MeshConfig::naca0012(24);
    let key = cache_key(&base).unwrap();

    let mut c = base.clone();
    c.bl.height *= 1.0 + 1e-15; // one ulp-ish nudge must be visible
    assert_ne!(cache_key(&c).unwrap(), key);

    let mut c = base.clone();
    c.sizing_max_area *= 2.0;
    assert_ne!(cache_key(&c).unwrap(), key);

    let mut c = base.clone();
    c.bl_subdomains += 1;
    assert_ne!(cache_key(&c).unwrap(), key);

    let mut c = base.clone();
    c.inviscid_subdomains += 1;
    assert_ne!(cache_key(&c).unwrap(), key);

    let mut c = base.clone();
    c.pslg.loops[0].name.push('x');
    assert_ne!(cache_key(&c).unwrap(), key);

    assert_ne!(cache_key(&MeshConfig::naca0012(25)).unwrap(), key);
}

#[test]
fn float_encoding_is_bit_stable() {
    // The canonical form writes f64 bits as hex: no decimal
    // formatting, no locale, no shortest-repr rounding. Values that
    // compare equal but differ in bits (0.0 vs -0.0) must get
    // different keys; values equal in bits must round-trip exactly.
    let mut a = MeshConfig::naca0012(16);
    let mut b = a.clone();
    a.nearbody_margin = 0.0;
    b.nearbody_margin = -0.0;
    assert_ne!(cache_key(&a).unwrap(), cache_key(&b).unwrap());

    // Bit-exact round trip through the wire form for awkward values.
    for v in [
        0.1,
        1.0 / 3.0,
        f64::MIN_POSITIVE,
        1e300,
        -5.5e-12,
        std::f64::consts::PI,
    ] {
        let mut c = MeshConfig::naca0012(16);
        c.sizing_rate = v;
        let text = canonical_request(&c).unwrap();
        let back = parse_request(&text).unwrap();
        assert_eq!(back.sizing_rate.to_bits(), v.to_bits(), "v={v}");
        assert_eq!(cache_key(&back).unwrap(), cache_key(&c).unwrap());
    }

    // The canonical bytes are pure ASCII with no locale-sensitive
    // separators anywhere.
    let text = canonical_request(&MeshConfig::three_element(12)).unwrap();
    assert!(text.is_ascii());
    assert!(!text.contains(','));
}

#[test]
fn canonical_form_is_stable_across_calls_and_clones() {
    let c = MeshConfig::three_element(16);
    let t1 = canonical_request(&c).unwrap();
    let t2 = canonical_request(&c.clone()).unwrap();
    assert_eq!(t1, t2);
    assert_eq!(cache_key(&c).unwrap(), cache_key(&c.clone()).unwrap());
}

#[test]
fn extra_sizing_is_typed_uncacheable() {
    let mut c = MeshConfig::naca0012(16);
    c.extra_sizing = Some(Arc::new(adm_core::UniformH(0.5)));
    assert!(matches!(
        canonical_request(&c),
        Err(RequestError::Uncacheable(_))
    ));
}
