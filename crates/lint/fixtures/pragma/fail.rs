// Three malformed pragmas: an unknown rule name, a known rule with no
// reason, and the name of a rule that no longer exists (`blocking` is
// checked at runtime now). Each is itself a violation (and suppresses
// nothing).
pub fn a() {
    let x: Option<u32> = None;
    let _ = x.unwrap(); // lint: allow(panics, typo in the rule name)
}

pub fn b() {
    let x: Option<u32> = None;
    let _ = x.unwrap(); // lint: allow(panic)
}

pub fn c() {
    let x: Option<u32> = None;
    let _ = x.unwrap(); // lint: allow(blocking, a rule the linter used to have)
}
