//! Strongly-typed identifiers for topology entities.

use std::fmt;

/// A host (cluster node). The numeric value doubles as the node's unique
/// protocol identity — the paper uses the IP address for this purpose; the
/// bully election picks the member with the *lowest* id as leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl HostId {
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A layer-2 segment (switch / VLAN): one broadcast domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u16);

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// A layer-3 router. Each router on a packet's path decrements its TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub u16);

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_id_ordering_matches_numeric() {
        assert!(HostId(3) < HostId(10));
        assert_eq!(HostId(7), HostId(7));
    }

    #[test]
    fn display_formats() {
        assert_eq!(HostId(5).to_string(), "h5");
        assert_eq!(SegmentId(2).to_string(), "seg2");
        assert_eq!(RouterId(1).to_string(), "r1");
    }
}
