//! Stamping: elaboration builds each component key once and copies its
//! later instances from that build, unless the build has a native block or
//! a keyless component. Debug builds re-run every stamped `build` and check
//! the copy.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use mtl_core::{elaborate, BlockBody, BlockId, Component, Ctx, Design, ElabError, Expr, Keyed};

/// `out = in_`, counting its builds; `native` adds a CL block.
struct Leaf {
    builds: &'static AtomicUsize,
    native: bool,
}

/// Keyed by the counter it bumps, by address, and by `native`.
impl Hash for Leaf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::ptr::hash(self.builds, state);
        self.native.hash(state);
    }
}

impl Component for Leaf {
    fn build(&self, c: &mut Ctx) {
        self.builds.fetch_add(1, Ordering::Relaxed);
        let in_ = c.in_port("in_", 8);
        let out = c.out_port("out", 8);
        c.comb("pass", |b| b.assign(out, in_));
        if self.native {
            let seen = c.out_port("seen", 1);
            c.tick_cl("watch", &[in_], &[seen], move |s| {
                let v = s.read(in_.id()).reduce_or();
                s.write_next(seen.id(), mtl_core::Bits::from_bool(v));
            });
        }
    }
}

/// `n` instances of one component side by side, each wired to its own
/// top-level ports.
struct Row<'a> {
    n: usize,
    child: &'a dyn Component,
}

impl Keyed for Row<'_> {}

impl Component for Row<'_> {
    fn build(&self, c: &mut Ctx) {
        for i in 0..self.n {
            let u = c.instantiate(&format!("u{i}"), self.child);
            let (in_, out) = (c.in_port(&format!("in{i}"), 8), c.out_port(&format!("out{i}"), 8));
            c.connect(in_, c.port_of(&u, "in_"));
            c.connect(c.port_of(&u, "out"), out);
        }
    }
}

/// How many times a stamped instance runs `build`: never in release,
/// once more for the check in debug.
const CHECK: usize = if cfg!(debug_assertions) { 1 } else { 0 };

#[test]
fn a_repeated_component_is_built_once_and_stamped() {
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    let leaf = Leaf { builds: &BUILDS, native: false };
    let design = elaborate(&Row { n: 4, child: &leaf }).unwrap();
    assert_eq!(BUILDS.load(Ordering::Relaxed), 1 + 3 * CHECK);

    // The stamps share the first instance's statements, shifted onto
    // their own signals, and the design reads as four separate builds.
    let ir = |b: usize| match &design.block(BlockId::from_index(b)).body {
        BlockBody::Ir(body) => body.clone(),
        BlockBody::Native(..) => unreachable!(),
    };
    assert_eq!(ir(0).ids().signals, 0);
    for b in 1..4 {
        assert_eq!(ir(b).stmts(), ir(0).stmts(), "one statement list");
        assert!(ir(b).ids().signals > 0, "stamp {b} is shifted");
        let out = design.module(design.top()).children[b];
        let port = |name| design.find_port(out, name).unwrap();
        let [stmt] = &ir(b).to_stmts()[..] else { panic!("one statement") };
        assert_eq!(*stmt, one_assign(port("out"), port("in_")));
        assert_eq!(design.block_path(BlockId::from_index(b)), format!("top.u{b}.pass"));
    }
    let shapes: Vec<_> = (0..4).map(|b| design.block_shape(BlockId::from_index(b))).collect();
    assert_eq!(shapes, [shapes[0]; 4], "one shape");
}

fn one_assign(target: mtl_core::SignalId, source: mtl_core::SignalId) -> mtl_core::Stmt {
    let lv = mtl_core::LValue { signal: target, lo: 0, hi: 8 };
    mtl_core::Stmt::Assign(lv, Expr::Read(source))
}

#[test]
fn a_subtree_with_a_native_block_is_rebuilt() {
    static NATIVE: AtomicUsize = AtomicUsize::new(0);
    static INNER: AtomicUsize = AtomicUsize::new(0);
    let leaf = Leaf { builds: &NATIVE, native: true };
    elaborate(&Row { n: 4, child: &leaf }).unwrap();
    assert_eq!(NATIVE.load(Ordering::Relaxed), 4, "never stamped");

    // A native-free child of a rebuilt subtree is still stamped.
    #[derive(Hash)]
    struct Outer(Leaf, Leaf);
    impl Component for Outer {
        fn build(&self, c: &mut Ctx) {
            let (in_, out) = (c.in_port("in_", 8), c.out_port("out", 8));
            let native = c.instantiate("native", &self.0);
            let pure = c.instantiate("pure", &self.1);
            c.connect(in_, c.port_of(&native, "in_"));
            c.connect(in_, c.port_of(&pure, "in_"));
            c.connect(c.port_of(&pure, "out"), out);
        }
    }
    let native = Leaf { builds: &NATIVE, native: true };
    let outer = Outer(native, Leaf { builds: &INNER, native: false });
    elaborate(&Row { n: 3, child: &outer }).unwrap();
    assert_eq!(INNER.load(Ordering::Relaxed), 1 + 2 * CHECK);
}

/// `out = k`, a constant of 8 bits.
#[derive(Hash)]
struct Konst(u32);

impl Component for Konst {
    fn build(&self, c: &mut Ctx) {
        let out = c.out_port("out", 8);
        c.comb("k", |b| b.assign(out, Expr::k(8, self.0.into())));
    }
}

/// Two components side by side under `u0` and `u1`.
struct Pair<'a>(&'a dyn Component, &'a dyn Component);

impl Keyed for Pair<'_> {}

impl Component for Pair<'_> {
    fn build(&self, c: &mut Ctx) {
        c.instantiate("u0", self.0);
        c.instantiate("u1", self.1);
    }
}

/// Two instances that differ in a field are two keys: each is built, in
/// debug and release alike, and each keeps its own constant.
#[test]
fn instances_differing_in_a_field_are_two_keys_each_built() {
    let design = elaborate(&Pair(&Konst(1), &Konst(2))).unwrap();
    let [u0, u1] = design.module(design.top()).children[..] else { panic!("two children") };
    assert_eq!(design.module(u0).component, "Konst", "the label is the type's name");
    assert_eq!(design.module(u1).component, "Konst");
    assert_ne!(design.module(u0).key, design.module(u1).key);
    let built = |b| design.block_source(BlockId::from_index(b)).is_none();
    assert!(built(0) && built(1), "neither is a stamp");
    let design = elaborate(&Pair(&Konst(1), &Konst(1))).unwrap();
    let [u0, u1] = design.module(design.top()).children[..] else { panic!("two children") };
    assert_eq!(design.module(u0).key, design.module(u1).key, "equal values are one key");
    assert_eq!(design.block_source(BlockId::from_index(1)), Some(BlockId::from_index(0)));
}

/// A keyless component is built at every instance, and so is a keyed one
/// holding it, which is keyless too; what they hold is still stamped.
#[test]
fn a_keyless_component_and_its_holder_are_built_at_every_instance() {
    #[derive(Hash)]
    struct Holder;
    impl Component for Holder {
        fn build(&self, c: &mut Ctx) {
            static BUILDS: AtomicUsize = AtomicUsize::new(0);
            let leaf = Leaf { builds: &BUILDS, native: false };
            let row = c.instantiate("row", &Row { n: 1, child: &leaf });
            let (in0, out) = (c.port_of(&row, "in0"), c.out_port("out", 8));
            c.connect(c.port_of(&row, "out0"), out);
            c.comb("own", |b| b.assign(in0, Expr::k(8, 3)));
        }
    }
    let design = elaborate(&Pair(&Holder, &Holder)).unwrap();
    let [u0, u1] = design.module(design.top()).children[..] else { panic!("two children") };
    let key = |m| design.module(m).key;
    let row = |m| design.module(m).children[0];
    assert_eq!([key(u0), key(u1), key(row(u0)), key(row(u1))], [None; 4], "all keyless");
    // Per holder: its leaf's `pass`, then its own block.
    let sources: Vec<_> = (0..4).map(|b| design.block_source(BlockId::from_index(b))).collect();
    let first = Some(BlockId::from_index(0));
    assert_eq!(sources, [None, None, first, None], "the leaf stamped, the holder built");
}

/// Two instances of one key whose builds differ: the fields break their
/// contract.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "component `Liar` builds differently at instance `u1` (blocks differ): \
                           its fields must determine everything its `build` does")]
fn a_build_its_fields_do_not_determine_panics_naming_it() {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    #[derive(Hash)]
    struct Liar;
    impl Component for Liar {
        fn build(&self, c: &mut Ctx) {
            let k = NEXT.fetch_add(1, Ordering::Relaxed);
            let out = c.out_port("out", 8);
            c.comb("k", |b| b.assign(out, Expr::k(8, k.into())));
        }
    }
    let _ = elaborate(&Pair(&Liar, &Liar));
}

#[test]
fn editing_one_stamped_block_leaves_its_siblings() {
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    let leaf = Leaf { builds: &BUILDS, native: false };
    let mut design = elaborate(&Row { n: 4, child: &leaf }).unwrap();
    let stmts = |d: &Design, b: usize| match &d.block(BlockId::from_index(b)).body {
        BlockBody::Ir(body) => body.to_stmts(),
        BlockBody::Native(..) => unreachable!(),
    };
    let before: Vec<_> = (0..4).map(|b| stmts(&design, b)).collect();
    design
        .blocks_mut(|blocks| {
            let BlockBody::Ir(body) = &mut blocks[2].body else { unreachable!() };
            let mtl_core::Stmt::Assign(_, e) = &mut body.stmts_mut()[0] else { unreachable!() };
            *e = e.clone() + Expr::k(8, 1);
        })
        .unwrap();
    for b in [0, 1, 3] {
        assert_eq!(stmts(&design, b), before[b], "sibling {b} unchanged");
    }
    let mtl_core::Stmt::Assign(lv, e) = &stmts(&design, 2)[0] else { unreachable!() };
    let mtl_core::Stmt::Assign(lv0, read) = &before[2][0] else { unreachable!() };
    assert_eq!((lv, e), (lv0, &(read.clone() + Expr::k(8, 1))));
    let shape = |b| design.block_shape(BlockId::from_index(b));
    assert_eq!([shape(0), shape(1), shape(3)], [shape(0); 3]);
    assert_ne!(shape(2), shape(0), "the edited block has a shape of its own");
}

/// A width mismatch inside a component stops elaboration at its first
/// instance, with the same error a build of every instance gives.
#[test]
fn a_width_mismatch_in_a_stamped_component_names_its_first_instance() {
    #[derive(Hash)]
    struct Bad;
    impl Component for Bad {
        fn build(&self, c: &mut Ctx) {
            let (x, y) = (c.wire("x", 8), c.wire("y", 4));
            c.connect(x, y);
            c.in_port("in_", 8);
            c.out_port("out", 8);
        }
    }
    let err = elaborate(&Row { n: 3, child: &Bad }).unwrap_err();
    let expected = ElabError::WidthMismatch {
        a: "top.u0.x".into(),
        b: "top.u0.y".into(),
        a_width: 8,
        b_width: 4,
    };
    assert_eq!(err, expected);
}

/// `out = in_ + k`, with the addend `k` an input its parent ties.
#[derive(Hash)]
struct Biased;

impl Component for Biased {
    fn build(&self, c: &mut Ctx) {
        let (in_, k, out) = (c.in_port("in_", 8), c.in_port("k", 8), c.out_port("out", 8));
        c.comb("add", |b| b.assign(out, in_ + k));
    }
}

/// Two [`Biased`] in a chain, tied to `a` and `b`: `out = in_ + a + b`.
#[derive(Hash)]
struct Chain(u128, u128);

impl Component for Chain {
    fn build(&self, c: &mut Ctx) {
        let (in_, out) = (c.in_port("in_", 8), c.out_port("out", 8));
        let (u0, u1) = (c.instantiate("u0", &Biased), c.instantiate("u1", &Biased));
        c.tie(c.port_of(&u0, "k"), self.0);
        c.tie(c.port_of(&u1, "k"), self.1);
        c.connect(in_, c.port_of(&u0, "in_"));
        c.connect(c.port_of(&u0, "out"), c.port_of(&u1, "in_"));
        c.connect(c.port_of(&u1, "out"), out);
    }
}

/// A tie is a connection: a component that ties its children is stamped
/// with its ties shifted onto the stamp's nets, and the stamp simulates
/// like the component built alone, on every engine.
#[test]
fn a_component_with_ties_stamps_them_shifted() {
    let row = Row { n: 2, child: &Chain(3, 5) };
    let design = elaborate(&row).unwrap();
    let k = |chain: usize, unit: usize| {
        let chain = design.module(design.top()).children[chain];
        let unit = design.module(chain).children[unit];
        design.net_of(design.find_port(unit, "k").unwrap())
    };
    let bits = |v| mtl_core::Bits::new(8, v);
    let want = [(k(0, 0), bits(3)), (k(0, 1), bits(5)), (k(1, 0), bits(3)), (k(1, 1), bits(5))];
    assert_eq!(design.ties(), want, "the second chain's ties, shifted onto its own nets");
    let sources: Vec<_> = (0..4).map(|b| design.block_source(BlockId::from_index(b))).collect();
    let first = Some(BlockId::from_index(0));
    assert_eq!(sources, [None, first, first, first], "one built block, three stamps");

    use mtl_sim::{Engine, Sim};
    for engine in Engine::ALL {
        let mut alone = Sim::build(&Chain(3, 5), engine).unwrap();
        let mut pair = Sim::build(&row, engine).unwrap();
        for v in [0u128, 10, 250] {
            alone.poke_port("in_", bits(v));
            pair.poke_port("in0", bits(v));
            pair.poke_port("in1", bits(v + 1));
            alone.eval();
            pair.eval();
            assert_eq!(pair.peek_port("out0"), alone.peek_port("out"), "{engine}, in {v}");
            assert_eq!(pair.peek_port("out1"), bits(v + 9), "{engine}, in {}", v + 1);
        }
    }
}
