//! Packet classification by destination.
//!
//! A packet's class (`N_i` or `E_i`) is determined by its *current*
//! destination — exchanges move classes between packets, not packets between
//! classes, so a class travels with the destination through any sequence of
//! exchanges.

use mesh_topo::Coord;
use mesh_traffic::PacketId;
use std::collections::HashMap;

/// A construction packet class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// `N_i`: destined for the N_i-column north of the E_i-row.
    N(u32),
    /// `E_i`: destined for the E_i-row east of the N_i-column.
    E(u32),
}

impl Class {
    /// The box index `i`.
    pub fn index(self) -> u32 {
        match self {
            Class::N(i) | Class::E(i) => i,
        }
    }

    /// True for N-classes.
    pub fn is_n(self) -> bool {
        matches!(self, Class::N(_))
    }
}

/// Per-packet classes plus per-class membership lists, maintained under
/// exchanges.
pub struct ClassMap {
    /// Current class of each packet (`None` for filler packets).
    class_of: Vec<Option<Class>>,
    /// Packets currently holding each class, keyed `(is_n, i)`.
    members: HashMap<(bool, u32), Vec<PacketId>>,
}

impl ClassMap {
    /// Builds the map from the initial assignment `dst(packet) → class`.
    ///
    /// `dsts[p]` is packet `p`'s initial destination; `classify` gives the
    /// class of each construction destination (or `None` for fillers).
    pub fn new(dsts: &[Coord], classify: impl Fn(Coord) -> Option<Class>) -> ClassMap {
        let mut class_of = Vec::with_capacity(dsts.len());
        let mut members: HashMap<(bool, u32), Vec<PacketId>> = HashMap::new();
        for (idx, &d) in dsts.iter().enumerate() {
            let cls = classify(d);
            if let Some(c) = cls {
                members
                    .entry((c.is_n(), c.index()))
                    .or_default()
                    .push(PacketId(idx as u32));
            }
            class_of.push(cls);
        }
        ClassMap { class_of, members }
    }

    /// Current class of a packet.
    #[inline]
    pub fn class_of(&self, p: PacketId) -> Option<Class> {
        self.class_of[p.index()]
    }

    /// Packets currently holding class `c`.
    pub fn members(&self, c: Class) -> &[PacketId] {
        self.members
            .get(&(c.is_n(), c.index()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Records that packets `a` and `b` exchanged destinations.
    pub fn record_exchange(&mut self, a: PacketId, b: PacketId) {
        let ca = self.class_of[a.index()];
        let cb = self.class_of[b.index()];
        self.class_of[a.index()] = cb;
        self.class_of[b.index()] = ca;
        if ca != cb {
            if let Some(c) = ca {
                let v = self.members.get_mut(&(c.is_n(), c.index())).unwrap();
                let pos = v.iter().position(|&p| p == a).unwrap();
                v[pos] = b;
            }
            if let Some(c) = cb {
                let v = self.members.get_mut(&(c.is_n(), c.index())).unwrap();
                let pos = v.iter().position(|&p| p == b).unwrap();
                v[pos] = a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_map() -> ClassMap {
        // Packets 0,1 are N_1/N_2; packet 2 is E_1; packet 3 is a filler.
        let dsts = [
            Coord::new(10, 20),
            Coord::new(11, 21),
            Coord::new(20, 10),
            Coord::new(0, 0),
        ];
        ClassMap::new(&dsts, |d| {
            if d == Coord::new(10, 20) {
                Some(Class::N(1))
            } else if d == Coord::new(11, 21) {
                Some(Class::N(2))
            } else if d == Coord::new(20, 10) {
                Some(Class::E(1))
            } else {
                None
            }
        })
    }

    #[test]
    fn initial_classes() {
        let m = toy_map();
        assert_eq!(m.class_of(PacketId(0)), Some(Class::N(1)));
        assert_eq!(m.class_of(PacketId(1)), Some(Class::N(2)));
        assert_eq!(m.class_of(PacketId(2)), Some(Class::E(1)));
        assert_eq!(m.class_of(PacketId(3)), None);
        assert_eq!(m.members(Class::N(1)), &[PacketId(0)]);
    }

    #[test]
    fn exchange_moves_classes_between_packets() {
        let mut m = toy_map();
        m.record_exchange(PacketId(0), PacketId(1));
        assert_eq!(m.class_of(PacketId(0)), Some(Class::N(2)));
        assert_eq!(m.class_of(PacketId(1)), Some(Class::N(1)));
        assert_eq!(m.members(Class::N(1)), &[PacketId(1)]);
        assert_eq!(m.members(Class::N(2)), &[PacketId(0)]);
        // Exchange back restores.
        m.record_exchange(PacketId(1), PacketId(0));
        assert_eq!(m.class_of(PacketId(0)), Some(Class::N(1)));
    }

    #[test]
    fn class_by_destination_is_stable() {
        let mut m = toy_map();
        m.record_exchange(PacketId(0), PacketId(2));
        // The packets holding the two classes swapped.
        assert_eq!(m.class_of(PacketId(0)), Some(Class::E(1)));
        assert_eq!(m.class_of(PacketId(2)), Some(Class::N(1)));
    }
}
