//! The [`Component`] trait, its [`Key`], and the [`elaborate`] entry point.

use std::hash::{Hash, Hasher};

use mtl_bits::Bits;

use crate::builder::{Ctx, Proto, SignalRef};
use crate::design::{Design, ElabError, ModuleInfo, NetInfo, SignalKind};
use crate::ids::{BlockId, ModuleId, NetId, SignalId};
use crate::{shape, typecheck};

/// A hardware component: the analog of a PyMTL `Model` subclass.
///
/// A component is a *description*: its fields are elaboration parameters and
/// its [`build`](Component::build) method declares ports, wires, submodules,
/// connections, and update blocks on the provided [`Ctx`]. Arbitrary Rust
/// may run during `build` (loops, helper functions, config structs), which
/// is what makes components highly parameterizable.
///
/// A component's identity is its value: its type and its fields, read
/// through a `#[derive(Hash)]` (see [`Keyed`]). Its contract is: **the
/// fields determine everything [`build`](Component::build) does through
/// the [`Ctx`]**, and `build` has no other side effect. Elaboration builds
/// each key once and stamps its later instances from that build (see
/// [`Ctx::instantiate`]), and the translator emits one Verilog module per
/// key; debug builds check every stamp against a fresh `build`. A subtree
/// with a native block is built anew at every instance, since its closures
/// may capture per-instance state (and it does not translate). A constant
/// that differs per instance belongs in an input port its parent ties
/// ([`Ctx::tie`]), not in a field, so that the instances stay one key.
///
/// # Examples
///
/// ```
/// use mtl_core::{Component, Ctx};
///
/// /// A D flip-flop of parameterizable width.
/// #[derive(Hash)]
/// struct Register { nbits: u32 }
///
/// impl Component for Register {
///     fn build(&self, c: &mut Ctx) {
///         let in_ = c.in_port("in_", self.nbits);
///         let out = c.out_port("out", self.nbits);
///         c.seq("seq_logic", |b| b.assign(out, in_));
///     }
/// }
///
/// let design = mtl_core::elaborate(&Register { nbits: 8 }).unwrap();
/// assert_eq!(design.module(design.top()).component, "Register");
/// ```
pub trait Component: Keyed {
    /// A readable label for diagnostics and Verilog module names: by
    /// default the type's own name (`Register`). It is not the
    /// component's identity and need not carry its parameters; the
    /// translator numbers the modules of one label apart (`Register_1`,
    /// `Register_2`) when a design holds two keys of it.
    fn name(&self) -> String {
        let path = std::any::type_name::<Self>().split('<').next().unwrap_or_default();
        path.rsplit("::").next().unwrap_or_default().to_string()
    }

    /// Declares this component's interface and behavior on `c`.
    fn build(&self, c: &mut Ctx);
}

/// What makes two components one: the [`Key`] of every type that derives
/// `Hash`, and none for a *keyless* type, which says so with an empty
/// `impl Keyed for T {}`.
///
/// A component that cannot derive `Hash` (it holds a closure, a memory
/// handle or a `dyn Component`) is keyless: elaboration builds each of its
/// instances, and the translator emits one module per instance of it and
/// of every component holding it.
pub trait Keyed {
    /// This value's key, or `None` for a keyless type.
    fn key(&self) -> Option<Key> {
        None
    }
}

impl<T: Hash + 'static> Keyed for T {
    fn key(&self) -> Option<Key> {
        let mut fields = FieldBytes(Vec::new());
        self.hash(&mut fields);
        Some(Key(std::any::TypeId::of::<T>(), fields.0))
    }
}

/// A component's identity: its type and every byte its `Hash` writes, so
/// two keys are equal exactly when the two values are of one type and
/// hash their fields alike (no digest, so no collision).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Key(std::any::TypeId, Vec<u8>);

/// A [`Hasher`] that keeps what it is fed.
struct FieldBytes(Vec<u8>);

impl Hasher for FieldBytes {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("a key keeps its bytes and is never finished")
    }
}

/// Elaborates a component into a [`Design`].
///
/// Runs the component's `build` recursively, then finalizes the design:
/// resolves connection nets, checks widths and drivers, and validates that
/// the combinational blocks are acyclic.
///
/// # Errors
///
/// Returns an [`ElabError`] describing the first structural problem found
/// (width mismatch, multiple drivers, combinational cycle, IR type error,
/// or invalid memory use).
pub fn elaborate(top: &dyn Component) -> Result<Design, ElabError> {
    let (proto, reset) = build_proto(top);
    finalize(proto, reset, true)
}

/// Elaborates a component *leniently*, never rejecting the design.
///
/// Where [`elaborate`] returns the first [`ElabError`], this entry point
/// keeps going: mismatched connection widths still union (the net takes the
/// widest member), multiply-driven nets keep their first writer, and the
/// memory-use, IR type, and combinational-cycle checks are skipped entirely.
///
/// The resulting [`Design`] is for *analysis tools only* — the linter in
/// particular needs to inspect defective designs that `elaborate` would
/// refuse to produce. Do not simulate or translate an unchecked design: the
/// invariants the engines rely on (one driver per net, acyclic comb logic,
/// width-correct IR) are not established.
pub fn elaborate_unchecked(top: &dyn Component) -> Design {
    let (proto, reset) = build_proto(top);
    finalize(proto, reset, false).expect("lenient elaboration cannot fail")
}

fn build_proto(top: &dyn Component) -> (Proto, SignalId) {
    let mut proto = Proto {
        modules: vec![ModuleInfo {
            name: "top".to_string(),
            component: top.name(),
            key: None,
            parent: None,
            children: Vec::new(),
            ports: Vec::new(),
        }],
        ..Proto::default()
    };
    let mut ctx = Ctx {
        proto: &mut proto,
        module: ModuleId::from_index(0),
        reset: SignalRef { id: SignalId::from_index(0), width: 1 },
    };
    let reset = ctx.in_port("reset", 1);
    ctx.reset = reset;
    top.build(&mut ctx);
    (proto, reset.id())
}

fn finalize(proto: Proto, reset: SignalId, strict: bool) -> Result<Design, ElabError> {
    let Proto { modules, mut signals, blocks, natives, mems, connections, ties, sources, .. } =
        proto;

    // 1. Union-find over connections to form nets.
    let mut uf: Vec<usize> = (0..signals.len()).collect();
    fn find(uf: &mut [usize], mut x: usize) -> usize {
        while uf[x] != x {
            uf[x] = uf[uf[x]];
            x = uf[x];
        }
        x
    }
    for &(a, b) in &connections {
        // Width check before unioning. Lenient elaboration unions anyway so
        // the linter can still see the mismatched net as one group.
        let (wa, wb) = (signals[a.index()].width, signals[b.index()].width);
        if wa != wb && strict {
            return Err(ElabError::WidthMismatch {
                a: signal_path(&modules, &signals, a),
                b: signal_path(&modules, &signals, b),
                a_width: wa,
                b_width: wb,
            });
        }
        let ra = find(&mut uf, a.index());
        let rb = find(&mut uf, b.index());
        uf[ra] = rb;
    }

    // 2. Assign net ids.
    let mut net_of_root: Vec<Option<NetId>> = vec![None; signals.len()];
    let mut nets: Vec<NetInfo> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for i in 0..signals.len() {
        let root = find(&mut uf, i);
        let net = *net_of_root[root].get_or_insert_with(|| {
            let id = NetId::from_index(nets.len());
            nets.push(NetInfo {
                signals: Vec::new(),
                width: signals[i].width,
                driver: None,
                is_register: false,
            });
            id
        });
        nets[net.index()].signals.push(SignalId::from_index(i));
        signals[i].net = net;
        // Under strict elaboration all members have equal width (checked
        // above), so taking the max is a no-op there; under lenient
        // elaboration the net adopts its widest member.
        let w = signals[i].width;
        if w > nets[net.index()].width {
            nets[net.index()].width = w;
        }
    }

    // 2b. Ties: each value fits its signal, and a net takes one value.
    // Lenient elaboration keeps the first value of a net, masked.
    let mut tied: Vec<(NetId, Bits)> = Vec::with_capacity(ties.len());
    for &(sig, value) in &ties {
        let info = &signals[sig.index()];
        let bits = match Bits::checked_new(info.width, value) {
            Some(bits) => bits,
            None if strict => {
                return Err(ElabError::WidthMismatch {
                    a: signal_path(&modules, &signals, sig),
                    b: format!("{value:#x}"),
                    a_width: info.width,
                    b_width: 128 - value.leading_zeros(),
                });
            }
            None => Bits::new(info.width, value),
        };
        tied.push((info.net, bits));
    }
    tied.sort_by_key(|&(net, _)| net);
    if strict {
        if let Some(pair) = tied.windows(2).find(|p| p[0].0 == p[1].0 && p[0].1 != p[1].1) {
            let first = nets[pair[0].0.index()].signals[0];
            return Err(ElabError::MultipleDrivers {
                net: signal_path(&modules, &signals, first),
                blocks: vec![format!("<tie {:#x}>", pair[0].1), format!("<tie {:#x}>", pair[1].1)],
            });
        }
    }
    tied.dedup_by_key(|&mut (net, _)| net);

    let shapes = shape::assign(&signals, &nets, &mems, &blocks, &sources);
    let mut design = Design {
        modules,
        signals,
        blocks,
        natives: natives.into_iter().map(crate::design::NativeCell::new).collect(),
        mems,
        connections,
        ties: tied,
        nets,
        reset,
        shapes,
        sources,
    };

    // 3. Driver analysis: at most one writer block per net; note registers.
    let mut driver: Vec<Option<BlockId>> = vec![None; design.nets.len()];
    for (bi, block) in design.blocks.iter().enumerate() {
        let bid = BlockId::from_index(bi);
        for &w in &block.writes {
            let net = design.signals[w.index()].net;
            match driver[net.index()] {
                None => driver[net.index()] = Some(bid),
                Some(prev) if prev == bid => {}
                // Lenient: first writer wins; the linter reports the rest.
                Some(_) if !strict => {}
                Some(prev) => {
                    return Err(ElabError::MultipleDrivers {
                        net: design.signal_path(w),
                        blocks: vec![design.block_path(prev), design.block_path(bid)],
                    });
                }
            }
        }
    }
    // Top-level in-ports are externally driven, and a tied net is driven
    // by its tie; a block driving either, or a tie on a top-level input,
    // is a conflict.
    let top_ports: Vec<SignalId> = design.modules[0].ports.clone();
    for &p in &top_ports {
        if design.signals[p.index()].kind == SignalKind::InPort && strict {
            let net = design.signals[p.index()].net;
            let other = match (driver[net.index()], design.tie_of(net)) {
                (Some(b), _) => design.block_path(b),
                (None, Some(value)) => format!("<tie {value:#x}>"),
                (None, None) => continue,
            };
            return Err(ElabError::MultipleDrivers {
                net: design.signal_path(p),
                blocks: vec!["<external>".to_string(), other],
            });
        }
    }
    if strict {
        for &(net, value) in &design.ties {
            if let Some(b) = driver[net.index()] {
                return Err(ElabError::MultipleDrivers {
                    net: design.net_path(net),
                    blocks: vec![format!("<tie {value:#x}>"), design.block_path(b)],
                });
            }
        }
    }
    for (ni, d) in driver.iter().enumerate() {
        design.nets[ni].driver = *d;
        if let Some(b) = d {
            design.nets[ni].is_register =
                design.blocks[b.index()].kind == crate::design::BlockKind::Seq;
        }
    }

    if !strict {
        // Lenient elaboration stops here: the remaining passes only reject
        // designs, and analysis tools want the defective design itself.
        return Ok(design);
    }

    // 4. Memory use: each memory written by at most one sequential block.
    let mut mem_writer: Vec<Option<BlockId>> = vec![None; design.mems.len()];
    for (bi, block) in design.blocks.iter().enumerate() {
        for &m in &block.mem_writes {
            let bid = BlockId::from_index(bi);
            match mem_writer[m.index()] {
                None => mem_writer[m.index()] = Some(bid),
                Some(prev) if prev == bid => {}
                Some(prev) => {
                    return Err(ElabError::BadMemUse {
                        mem: design.mems[m.index()].name.clone(),
                        message: format!(
                            "written by both `{}` and `{}`",
                            design.block_path(prev),
                            design.block_path(bid)
                        ),
                    });
                }
            }
        }
    }

    // 5. IR width checking, once per block shape.
    typecheck::check_design(&design)?;

    // 6. Combinational cycle check.
    design.comb_schedule()?;

    Ok(design)
}

fn signal_path(
    modules: &[ModuleInfo],
    signals: &[crate::design::SignalInfo],
    sig: SignalId,
) -> String {
    let info = &signals[sig.index()];
    let mut parts = Vec::new();
    let mut cur = Some(info.module);
    while let Some(m) = cur {
        parts.push(modules[m.index()].name.clone());
        cur = modules[m.index()].parent;
    }
    parts.reverse();
    format!("{}.{}", parts.join("."), info.name)
}
