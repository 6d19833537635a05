//! Per-phase overhead accounting (the paper's Figure 16).

use std::fmt;
use std::time::Duration;

/// Wall-clock time spent in each simulator-construction phase.
///
/// Mirrors the columns of the paper's Figure 16: elaboration (`elab`), code
/// generation (`cgen`), tape optimization (`comp`), wrapper table
/// construction (`wrap`), and simulator/schedule creation (`simc`). The
/// paper's Verilog translate-and-reparse phase has no field: no build
/// simulates a re-parsed design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Overheads {
    /// Component elaboration into a `Design`.
    pub elab: Duration,
    /// IR-to-tape code generation and the tape optimizer, once per block
    /// shape, plus relocating each block's copy.
    pub cgen: Duration,
    /// IR optimization: constant folding of each block shape's first
    /// instance (the one a shape compiles; every later instance is a
    /// relocated copy), so Figure 16 keeps a `comp` column. The tape
    /// optimizer's passes are charged to `cgen`.
    pub comp: Duration,
    /// Signal-view wrapper table construction.
    pub wrap: Duration,
    /// Schedule and event-structure creation.
    pub simc: Duration,
}

impl Overheads {
    /// Total overhead across all phases.
    pub fn total(&self) -> Duration {
        self.elab + self.cgen + self.comp + self.wrap + self.simc
    }
}

impl fmt::Display for Overheads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "elab {:.3}s cgen {:.3}s comp {:.3}s wrap {:.3}s simc {:.3}s total {:.3}s",
            self.elab.as_secs_f64(),
            self.cgen.as_secs_f64(),
            self.comp.as_secs_f64(),
            self.wrap.as_secs_f64(),
            self.simc.as_secs_f64(),
            self.total().as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_phases() {
        let o = Overheads {
            elab: Duration::from_millis(1),
            cgen: Duration::from_millis(2),
            comp: Duration::from_millis(4),
            wrap: Duration::from_millis(5),
            simc: Duration::from_millis(6),
        };
        assert_eq!(o.total(), Duration::from_millis(18));
        assert!(o.to_string().contains("total 0.018s"));
    }
}
