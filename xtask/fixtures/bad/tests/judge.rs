//! Seeded-violation fixture for rule 6's call-site form: `total` appears
//! here only as a local variable, never as a call of `Stats::total`.

#[test]
fn totals() {
    let total = 2 + 2;
    assert_eq!(total, 4);
}
