//! Elaboration-time error detection: width mismatches, multiple drivers,
//! combinational cycles, and IR type errors must be caught with precise
//! diagnostics before any tool runs.

use mtl_core::{elaborate, Component, Ctx, ElabError, Expr};

#[derive(Hash)]
struct WidthMismatch;
impl Component for WidthMismatch {
    fn build(&self, c: &mut Ctx) {
        let a = c.wire("a", 8);
        let b = c.wire("b", 4);
        c.connect(a, b);
    }
}

#[test]
fn connect_width_mismatch_is_reported() {
    let err = elaborate(&WidthMismatch).unwrap_err();
    match &err {
        ElabError::WidthMismatch { a_width, b_width, .. } => {
            assert_eq!((*a_width, *b_width), (8, 4));
        }
        other => panic!("wrong error: {other}"),
    }
    assert!(err.to_string().contains("cannot connect"));
}

#[derive(Hash)]
struct MultiDriver;
impl Component for MultiDriver {
    fn build(&self, c: &mut Ctx) {
        let w = c.wire("w", 8);
        c.comb("blk_a", |b| b.assign(w, Expr::k(8, 1)));
        c.comb("blk_b", |b| b.assign(w, Expr::k(8, 2)));
    }
}

#[test]
fn multiple_drivers_are_reported() {
    let err = elaborate(&MultiDriver).unwrap_err();
    assert!(matches!(err, ElabError::MultipleDrivers { .. }), "{err}");
    assert!(err.to_string().contains("blk_a") && err.to_string().contains("blk_b"));
}

#[derive(Hash)]
struct DriverOnInput;
impl Component for DriverOnInput {
    fn build(&self, c: &mut Ctx) {
        let i = c.in_port("i", 4);
        c.comb("bad", |b| b.assign(i, Expr::k(4, 0)));
    }
}

#[test]
fn driving_a_top_level_input_is_reported() {
    let err = elaborate(&DriverOnInput).unwrap_err();
    assert!(err.to_string().contains("external"), "{err}");
}

#[derive(Hash)]
struct CombLoop;
impl Component for CombLoop {
    fn build(&self, c: &mut Ctx) {
        let a = c.wire("a", 1);
        let b_ = c.wire("b", 1);
        c.comb("fwd", |b| b.assign(a, !b_.ex()));
        c.comb("bwd", |b| b.assign(b_, !a.ex()));
    }
}

#[test]
fn combinational_cycles_are_reported() {
    let err = elaborate(&CombLoop).unwrap_err();
    assert!(matches!(err, ElabError::CombCycle { .. }), "{err}");
}

#[derive(Hash)]
struct SelfReadBlock;
impl Component for SelfReadBlock {
    fn build(&self, c: &mut Ctx) {
        let i = c.in_port("i", 8);
        let t = c.wire("t", 8);
        let o = c.out_port("o", 8);
        // Define-before-use within one block is legal (not a cycle).
        c.comb("chain", |b| {
            b.assign(t, i + Expr::k(8, 1));
            b.assign(o, t + Expr::k(8, 1));
        });
    }
}

#[test]
fn define_before_use_in_one_block_is_legal() {
    let design = elaborate(&SelfReadBlock).unwrap();
    assert_eq!(design.blocks().len(), 1);
}

#[derive(Hash)]
struct BadWidthExpr;
impl Component for BadWidthExpr {
    fn build(&self, c: &mut Ctx) {
        let a = c.in_port("a", 8);
        let o = c.out_port("o", 4);
        c.comb("bad", |b| b.assign(o, a.ex()));
    }
}

#[test]
fn ir_width_errors_are_reported_with_block_path() {
    let err = elaborate(&BadWidthExpr).unwrap_err();
    match &err {
        ElabError::TypeError { block, message } => {
            assert!(block.contains("bad"));
            assert!(message.contains("width"));
        }
        other => panic!("wrong error: {other}"),
    }
}

#[derive(Hash)]
struct MemTwoWriters;
impl Component for MemTwoWriters {
    fn build(&self, c: &mut Ctx) {
        let m = c.mem("m", 4, 8);
        c.seq("w1", |b| b.mem_write(m, Expr::k(2, 0), Expr::k(8, 1)));
        c.seq("w2", |b| b.mem_write(m, Expr::k(2, 1), Expr::k(8, 2)));
    }
}

#[test]
fn two_memory_writers_are_reported() {
    let err = elaborate(&MemTwoWriters).unwrap_err();
    assert!(matches!(err, ElabError::BadMemUse { .. }), "{err}");
}

#[derive(Hash)]
struct CombMemWrite;
impl Component for CombMemWrite {
    fn build(&self, c: &mut Ctx) {
        let m = c.mem("m", 4, 8);
        c.comb("bad", |b| b.mem_write(m, Expr::k(2, 0), Expr::k(8, 1)));
    }
}

#[test]
fn combinational_memory_writes_are_rejected() {
    let err = elaborate(&CombMemWrite).unwrap_err();
    assert!(err.to_string().contains("sequential"), "{err}");
}

#[derive(Hash)]
struct DeepHierarchy;
impl Component for DeepHierarchy {
    fn build(&self, c: &mut Ctx) {
        #[derive(Hash)]
        struct Leaf;
        impl Component for Leaf {
            fn build(&self, c: &mut Ctx) {
                let i = c.in_port("i", 4);
                let o = c.out_port("o", 4);
                c.comb("inv", |b| b.assign(o, !i.ex()));
            }
        }
        #[derive(Hash)]
        struct Mid;
        impl Component for Mid {
            fn build(&self, c: &mut Ctx) {
                let i = c.in_port("i", 4);
                let o = c.out_port("o", 4);
                let l = c.instantiate("leaf", &Leaf);
                c.connect(i, c.port_of(&l, "i"));
                c.connect(c.port_of(&l, "o"), o);
            }
        }
        let i = c.in_port("i", 4);
        let o = c.out_port("o", 4);
        let m = c.instantiate("mid", &Mid);
        c.connect(i, c.port_of(&m, "i"));
        c.connect(c.port_of(&m, "o"), o);
    }
}

#[test]
fn hierarchical_paths_are_dotted() {
    let design = elaborate(&DeepHierarchy).unwrap();
    let has_path =
        design.blocks().iter().enumerate().any(|(i, _)| {
            design.block_path(mtl_core::BlockId::from_index(i)) == "top.mid.leaf.inv"
        });
    assert!(has_path, "expected top.mid.leaf.inv block path");
    // Reset is threaded automatically through both levels.
    let resets = design.signals().iter().filter(|s| s.name == "reset").count();
    assert_eq!(resets, 3);
    let reset_net = design.net_of(design.reset());
    assert_eq!(design.net(reset_net).signals.len(), 3, "resets all share one net");
}

/// `q = a` with `a` of `in_width` bits and `q` of 8: ill-typed unless 8.
#[derive(Hash)]
struct Narrowing {
    in_width: u32,
}
impl Component for Narrowing {
    fn build(&self, c: &mut Ctx) {
        let a = c.in_port("a", self.in_width);
        let q = c.out_port("q", 8);
        c.comb("calc", |b| b.assign(q, a));
    }
}

/// A well-typed instance, then two ill-typed instances of one shape, then
/// an ill-typed instance of another.
#[derive(Hash)]
struct TwoBadInstances;
impl Component for TwoBadInstances {
    fn build(&self, c: &mut Ctx) {
        for (i, in_width) in [8, 4, 4, 2].into_iter().enumerate() {
            c.instantiate(&format!("u{i}"), &Narrowing { in_width });
        }
    }
}

/// The type checker runs once per block shape, yet reports what checking
/// every block in block order reports: the first ill-typed block, which is
/// the first instance of its shape.
#[test]
fn type_errors_name_the_first_ill_typed_instance() {
    let err = elaborate(&TwoBadInstances).unwrap_err();
    assert_eq!(
        err,
        ElabError::TypeError {
            block: "top.u1.calc".into(),
            message: "assignment width mismatch: target is 8 bits, expression is 4 bits".into(),
        }
    );
}

/// A parent tying its child's input: `value` to `in_` of `u0`, and, with
/// `also`, a second value to the same net through `u1`'s input, which the
/// parent connects to `u0`'s; with `written`, a block of the parent writes
/// the tied net too.
#[derive(Hash)]
struct Tied {
    value: u128,
    also: Option<u128>,
    written: bool,
}

/// A 4-bit input read into an output.
#[derive(Hash)]
struct Sink;
impl Component for Sink {
    fn build(&self, c: &mut Ctx) {
        let (in_, out) = (c.in_port("in_", 4), c.out_port("out", 4));
        c.comb("pass", |b| b.assign(out, in_));
    }
}

impl Component for Tied {
    fn build(&self, c: &mut Ctx) {
        let u0 = c.instantiate("u0", &Sink);
        let in0 = c.port_of(&u0, "in_");
        c.tie(in0, self.value);
        if let Some(value) = self.also {
            let u1 = c.instantiate("u1", &Sink);
            let in1 = c.port_of(&u1, "in_");
            c.connect(in0, in1);
            c.tie(in1, value);
        }
        if self.written {
            c.comb("drive", |b| b.assign(in0, Expr::k(4, 1)));
        }
    }
}

#[test]
fn a_tie_is_a_driver_that_fits_its_signal() {
    let design = elaborate(&Tied { value: 0xF, also: Some(0xF), written: false }).unwrap();
    let net =
        design.net_of(design.find_port(design.module(design.top()).children[0], "in_").unwrap());
    assert_eq!(design.ties(), [(net, mtl_core::Bits::new(4, 0xF))], "one entry per net");
    assert_eq!(design.tie_of(net), Some(mtl_core::Bits::new(4, 0xF)));
}

#[test]
fn a_tie_wider_than_its_signal_is_reported() {
    let err = elaborate(&Tied { value: 0x1F, also: None, written: false }).unwrap_err();
    let expected = ElabError::WidthMismatch {
        a: "top.u0.in_".into(),
        b: "0x1f".into(),
        a_width: 4,
        b_width: 5,
    };
    assert_eq!(err, expected);
}

#[test]
fn a_tie_on_a_net_a_block_writes_is_reported() {
    let err = elaborate(&Tied { value: 3, also: None, written: true }).unwrap_err();
    assert_eq!(
        err,
        ElabError::MultipleDrivers {
            net: "top.u0.in_".into(),
            blocks: vec!["<tie 0x3>".into(), "top.drive".into()],
        }
    );
}

#[test]
fn two_different_ties_on_one_net_are_reported() {
    let err = elaborate(&Tied { value: 3, also: Some(5), written: false }).unwrap_err();
    assert_eq!(
        err,
        ElabError::MultipleDrivers {
            net: "top.u0.in_".into(),
            blocks: vec!["<tie 0x3>".into(), "<tie 0x5>".into()],
        }
    );
}

#[test]
fn a_tie_on_a_top_level_input_is_reported() {
    #[derive(Hash)]
    struct TiesItsInput;
    impl Component for TiesItsInput {
        fn build(&self, c: &mut Ctx) {
            let i = c.in_port("i", 4);
            c.tie(i, 2);
        }
    }
    let err = elaborate(&TiesItsInput).unwrap_err();
    assert!(err.to_string().contains("<external>, <tie 0x2>"), "{err}");
}
