//! Typed index newtypes used throughout an elaborated design.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// The raw index value.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an id from a raw index.
            ///
            /// Intended for tools that build parallel tables indexed by id
            /// (simulators, translators); ids are only meaningful relative to
            /// the design they came from.
            pub fn from_index(index: usize) -> Self {
                Self(index as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a signal (port or wire) in an elaborated [`Design`](crate::Design).
    SignalId,
    "s"
);
id_type!(
    /// Identifies a module instance in an elaborated [`Design`](crate::Design).
    ModuleId,
    "m"
);
id_type!(
    /// Identifies an update block in an elaborated [`Design`](crate::Design).
    BlockId,
    "b"
);
id_type!(
    /// Identifies a connection net (a group of aliased signals).
    NetId,
    "n"
);
id_type!(
    /// Identifies a memory array declared by an RTL model.
    MemId,
    "mem"
);
id_type!(
    /// Identifies a block shape: IR blocks that are one body wired to
    /// different state (see [`Design::shapes`](crate::Design::shapes)).
    ShapeId,
    "shape"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_format() {
        let s = SignalId::from_index(7);
        assert_eq!(s.index(), 7);
        assert_eq!(format!("{s:?}"), "s7");
        assert_eq!(format!("{:?}", NetId::from_index(3)), "n3");
        assert!(SignalId::from_index(1) < SignalId::from_index(2));
    }
}
