//! Structural mesh network (the paper's Figure 11).
//!
//! The mesh skeleton is parameterized by a router *factory*, so the same
//! structural code instantiates CL or RTL routers — the paper's key reuse
//! point: swap the router model, keep the network.

use mtl_core::{Component, Ctx, Keyed};

use crate::fl::NetworkFL;
use crate::router_cl::RouterCL;
use crate::router_rtl::RouterRTL;
use crate::{EAST, NORTH, SOUTH, TERM, WEST};

/// Abstraction level of a network model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetLevel {
    /// Magic single-cycle crossbar (Figure 10).
    Fl,
    /// Structural mesh of cycle-level routers.
    Cl,
    /// Structural mesh of RTL routers (Verilog-translatable).
    Rtl,
}

impl std::fmt::Display for NetLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NetLevel::Fl => "FL",
            NetLevel::Cl => "CL",
            NetLevel::Rtl => "RTL",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for NetLevel {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) spelling, ignoring
    /// ASCII case.
    fn from_str(s: &str) -> Result<NetLevel, String> {
        let all = [NetLevel::Fl, NetLevel::Cl, NetLevel::Rtl];
        let found = all.into_iter().find(|l| l.to_string().eq_ignore_ascii_case(s));
        found.ok_or_else(|| format!("unknown net level \"{s}\""))
    }
}

/// A structural mesh composed of per-node routers supplied by a factory.
pub struct MeshNetworkStructural {
    nrouters: usize,
    payload_nbits: u32,
    /// Builds router `id`.
    router_factory: Box<dyn Fn(usize) -> Box<dyn Component>>,
    /// Per router `id`, the input ports the mesh ties and their values
    /// (an RTL router's coordinates; nothing for a CL router).
    router_ties: Box<dyn Fn(usize) -> Vec<(&'static str, u128)>>,
}

impl MeshNetworkStructural {
    /// Creates a mesh from an arbitrary router factory.
    ///
    /// # Panics
    ///
    /// Panics if `nrouters` is not a perfect square.
    pub fn new(
        nrouters: usize,
        payload_nbits: u32,
        router_factory: Box<dyn Fn(usize) -> Box<dyn Component>>,
    ) -> Self {
        let side = (nrouters as f64).sqrt() as usize;
        assert_eq!(side * side, nrouters, "nrouters must be a perfect square");
        let router_ties = Box::new(|_| Vec::new());
        Self { nrouters, payload_nbits, router_factory, router_ties }
    }

    /// A mesh of cycle-level routers.
    pub fn cl(nrouters: usize, payload_nbits: u32, nentries: usize) -> Self {
        Self::new(
            nrouters,
            payload_nbits,
            Box::new(move |id| Box::new(RouterCL::new(id, nrouters, payload_nbits, nentries))),
        )
    }

    /// A mesh of RTL routers (side must be a power of two): one router
    /// component, its coordinates tied per instance.
    pub fn rtl(nrouters: usize, payload_nbits: u32, nentries: u64) -> Self {
        let router = move || RouterRTL::new(nrouters, payload_nbits, nentries);
        Self {
            router_ties: Box::new(move |id| router().position(id).to_vec()),
            ..Self::new(nrouters, payload_nbits, Box::new(move |_| Box::new(router())))
        }
    }
}

/// Keyless: its routers come from a factory closure.
impl Keyed for MeshNetworkStructural {}

impl Component for MeshNetworkStructural {
    fn build(&self, c: &mut Ctx) {
        let layout = crate::net_msg_layout(self.nrouters, self.payload_nbits);
        let w = layout.width();
        let n = self.nrouters;
        let side = (n as f64).sqrt() as usize;

        let ins: Vec<_> = (0..n).map(|i| c.in_valrdy(&format!("in__{i}"), w)).collect();
        let outs: Vec<_> = (0..n).map(|i| c.out_valrdy(&format!("out_{i}"), w)).collect();

        // Instantiate routers.
        let routers: Vec<_> = (0..n)
            .map(|id| {
                let r = (self.router_factory)(id);
                let inst = c.instantiate(&format!("router_{id}"), &*r);
                for (port, value) in (self.router_ties)(id) {
                    c.tie(c.port_of(&inst, port), value);
                }
                inst
            })
            .collect();

        // Connect injection/ejection terminals.
        for i in 0..n {
            let term_in = c.in_valrdy_of(&routers[i], &format!("in__{TERM}"));
            c.connect(ins[i].msg, term_in.msg);
            c.connect(ins[i].val, term_in.val);
            c.connect(ins[i].rdy, term_in.rdy);
            let term_out = c.out_valrdy_of(&routers[i], &format!("out_{TERM}"));
            c.connect(term_out.msg, outs[i].msg);
            c.connect(term_out.val, outs[i].val);
            c.connect(term_out.rdy, outs[i].rdy);
        }

        // Connect mesh links (the paper's Figure 11 loop nest).
        for j in 0..side {
            for i in 0..side {
                let idx = i + j * side;
                let cur = &routers[idx];
                if i + 1 < side {
                    let east = &routers[idx + 1];
                    let cur_out = c.out_valrdy_of(cur, &format!("out_{EAST}"));
                    let east_in = c.in_valrdy_of(east, &format!("in__{WEST}"));
                    c.connect_valrdy(cur_out, east_in);
                    let east_out = c.out_valrdy_of(east, &format!("out_{WEST}"));
                    let cur_in = c.in_valrdy_of(cur, &format!("in__{EAST}"));
                    c.connect_valrdy(east_out, cur_in);
                }
                if j + 1 < side {
                    let south = &routers[idx + side];
                    let cur_out = c.out_valrdy_of(cur, &format!("out_{SOUTH}"));
                    let south_in = c.in_valrdy_of(south, &format!("in__{NORTH}"));
                    c.connect_valrdy(cur_out, south_in);
                    let south_out = c.out_valrdy_of(south, &format!("out_{NORTH}"));
                    let cur_in = c.in_valrdy_of(cur, &format!("in__{SOUTH}"));
                    c.connect_valrdy(south_out, cur_in);
                }
            }
        }
    }
}

/// Builds a network model of the requested level with a uniform terminal
/// interface (`in__i` / `out_i` val/rdy bundles) and `nentries`-deep
/// router buffers (2 everywhere but the buffer-depth ablation).
pub fn network(
    level: NetLevel,
    nrouters: usize,
    payload_nbits: u32,
    nentries: usize,
) -> Box<dyn Component> {
    match level {
        NetLevel::Fl => Box::new(NetworkFL::new(nrouters, payload_nbits, nentries)),
        NetLevel::Cl => Box::new(MeshNetworkStructural::cl(nrouters, payload_nbits, nentries)),
        NetLevel::Rtl => {
            Box::new(MeshNetworkStructural::rtl(nrouters, payload_nbits, nentries as u64))
        }
    }
}
