//! Mesh on-chip network models for RustMTL — the paper's §III-D case
//! study.
//!
//! Provides the FL "magic crossbar" network ([`NetworkFL`], Figure 10),
//! cycle-level and RTL XY-routed mesh routers ([`RouterCL`],
//! [`RouterRTL`]), the structural mesh skeleton parameterized by a router
//! factory ([`MeshNetworkStructural`], Figure 11), a traffic harness
//! that records delivery statistics ([`MeshTrafficHarness`]), and the
//! hand-written efficiency-level baseline ([`HandwrittenMesh`]) used by
//! the Figure 14/15 benchmarks. The crate holds models only: the bench
//! measurements over them (latency sweeps, traffic patterns, buffer
//! depths) are `mtl-serve` registry jobs (`mesh_cycles`, `mesh_rate`).
//!
//! # Examples
//!
//! Measuring the low-load latency of a 16-node CL mesh:
//!
//! ```
//! use mtl_net::{MeshTrafficHarness, NetLevel};
//! use mtl_sim::{Engine, Sim};
//!
//! let harness = MeshTrafficHarness::new(NetLevel::Cl, 16, 10, 0xC0FFEE);
//! let stats = harness.stats();
//! let mut sim = Sim::build(&harness, Engine::SpecializedOpt).unwrap();
//! sim.reset();
//! sim.run(700);
//! let stats = stats.lock().unwrap();
//! assert_eq!(stats.misrouted, 0);
//! assert!(stats.avg_latency() > 0.0);
//! ```

mod fl;
mod handwritten;
mod mesh;
mod msg;
mod router_cl;
mod router_rtl;
mod traffic;

pub use fl::NetworkFL;
pub use handwritten::HandwrittenMesh;
pub use mesh::{network, MeshNetworkStructural, NetLevel};
pub use msg::{make_net_msg, net_msg_layout};
pub use router_cl::RouterCL;
pub use router_rtl::RouterRTL;
pub use traffic::{
    MeshTrafficHarness, MeshTrafficRtlHarness, NetStats, RtlTrafficGen, TrafficGen, TrafficPattern,
};

/// Router port index: toward smaller y.
pub const NORTH: usize = 0;
/// Router port index: toward larger x.
pub const EAST: usize = 1;
/// Router port index: toward larger y.
pub const SOUTH: usize = 2;
/// Router port index: toward smaller x.
pub const WEST: usize = 3;
/// Router port index: the local terminal.
pub const TERM: usize = 4;
/// Number of router ports.
pub const NPORTS: usize = 5;

/// XY dimension-ordered routing: the output port a packet at router `my`
/// headed for router `dest` takes, in a `side`×`side` mesh.
///
/// # Examples
///
/// ```
/// use mtl_net::{xy_route, EAST, TERM};
/// assert_eq!(xy_route(0, 3, 4), EAST);
/// assert_eq!(xy_route(5, 5, 4), TERM);
/// ```
pub fn xy_route(my: usize, dest: usize, side: usize) -> usize {
    let (mx, my_) = (my % side, my / side);
    let (dx, dy) = (dest % side, dest / side);
    if dx > mx {
        EAST
    } else if dx < mx {
        WEST
    } else if dy > my_ {
        SOUTH
    } else if dy < my_ {
        NORTH
    } else {
        TERM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_route_goes_x_first() {
        // From router 0 (0,0) to router 15 (3,3) in a 4x4 mesh: east.
        assert_eq!(xy_route(0, 15, 4), EAST);
        // Same column: south.
        assert_eq!(xy_route(0, 12, 4), SOUTH);
        // Same row, to the left: west.
        assert_eq!(xy_route(3, 0, 4), WEST);
        // Above: north.
        assert_eq!(xy_route(12, 0, 4), NORTH);
    }

    #[test]
    fn xy_route_is_minimal_and_progresses() {
        // Following the route function always reaches the destination in
        // manhattan-distance hops.
        let side = 8;
        for src in 0..side * side {
            for dest in 0..side * side {
                let mut cur = src;
                let mut hops = 0;
                while cur != dest {
                    let dir = xy_route(cur, dest, side);
                    cur = match dir {
                        NORTH => cur - side,
                        SOUTH => cur + side,
                        EAST => cur + 1,
                        WEST => cur - 1,
                        _ => unreachable!("terminal before arrival"),
                    };
                    hops += 1;
                    assert!(hops <= 2 * side, "routing loop {src}->{dest}");
                }
                let manhattan =
                    (src % side).abs_diff(dest % side) + (src / side).abs_diff(dest / side);
                assert_eq!(hops, manhattan, "non-minimal route {src}->{dest}");
            }
        }
    }
}
