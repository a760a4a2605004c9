//! Machine-checked versions of Lemmas 1–8 (§4.1).
//!
//! The checker runs after every construction step and verifies, from the
//! packets' current classes and locations:
//!
//! * **Lemma 1** — no packet of class `N_j`/`E_j` with `j ≥ i` has left the
//!   i-box while `t ≤ (i−1)·dn`;
//! * **Lemma 2** — at most one N_i-packet and one E_i-packet leave the i-box
//!   per step while `(i−1)·dn < t ≤ i·dn`;
//! * **Lemmas 5/6** — packets of class `N_j`/`E_j` stay inside the
//!   `(i−2)`-box while `t ≤ (i−1)·dn`, for every applicable `1 < i ≤ j`;
//! * **Lemmas 7/8** — while `t ≤ i·dn`, no N_i-packet is at-or-north of the
//!   E_i-row and west of the N_i-column (resp. for E_i-packets);
//! * and the §4.1 corollary that an N_i-packet is never east of its
//!   N_i-column nor an E_i-packet north of its E_i-row.

use crate::classify::{Class, ClassMap};
use crate::constants::GeneralParams;
use crate::geometry::BoxGeometry;
use mesh_engine::Loc;
use mesh_traffic::PacketId;

/// Stateful checker (Lemma 2 needs the previous step's departure counts).
pub struct InvariantChecker {
    geom: BoxGeometry,
    dn: u64,
    l: u32,
    num_packets: usize,
    /// Per class (N then E, index i-1): packets outside the i-box (or
    /// delivered) at the previous step.
    prev_out: Vec<u32>,
}

impl InvariantChecker {
    /// Creates a checker for a construction with the given parameters.
    pub fn new(params: &GeneralParams) -> InvariantChecker {
        InvariantChecker {
            geom: BoxGeometry { cn: params.cn },
            dn: params.dn as u64,
            l: params.l,
            num_packets: (2 * params.p * params.l) as usize,
            prev_out: vec![0; 2 * params.l as usize],
        }
    }

    /// Verifies all lemmas after (1-based) step `t`.
    pub fn check_after_step(
        &mut self,
        t: u64,
        classes: &ClassMap,
        loc_of: impl Fn(PacketId) -> Loc,
    ) -> Result<(), String> {
        let l = self.l;
        let geom = &self.geom;
        let mut out = vec![0u32; 2 * l as usize];

        for idx in 0..self.num_packets {
            let p = PacketId(idx as u32);
            let Some(cls) = classes.class_of(p) else {
                continue;
            };
            let j = cls.index();
            let loc = loc_of(p);
            let coord = match loc {
                Loc::At(c) => Some(c),
                Loc::Delivered => None,
                Loc::Pending => return Err(format!("packet {p:?} pending mid-construction")),
                // The adversary constructions run without fault plans or
                // admission control, so a destroyed/shed/expired packet
                // means the harness was miswired.
                Loc::Lost => return Err(format!("packet {p:?} lost mid-construction")),
                Loc::Shed | Loc::Expired => {
                    return Err(format!("packet {p:?} shed/expired mid-construction"))
                }
            };

            // Departure counting for Lemmas 1/2: outside the j-box or gone.
            let outside_own = match coord {
                Some(c) => !geom.in_box(c, j),
                None => true,
            };
            if outside_own {
                let slot = if cls.is_n() { j - 1 } else { l + j - 1 } as usize;
                out[slot] += 1;
            }

            if let Some(c) = coord {
                // §4.1 note: never east of the N_j-column / north of E_j-row.
                match cls {
                    Class::N(_) => {
                        if c.x > geom.n_col(j) {
                            return Err(format!("N_{j} packet {p:?} east of its column at {c:?}"));
                        }
                    }
                    Class::E(_) => {
                        if c.y > geom.e_row(j) {
                            return Err(format!("E_{j} packet {p:?} north of its row at {c:?}"));
                        }
                    }
                }

                // Lemmas 5/6: inside the (i0−2)-box where i0 is the smallest
                // applicable i (1 < i ≤ j, t ≤ (i−1)·dn) — the tightest box.
                let i0 = (t.div_ceil(self.dn) + 1).max(2);
                if i0 <= j as u64 {
                    let b = i0 as u32 - 2;
                    if !geom.in_box(c, b) {
                        return Err(format!(
                            "Lemma 5/6: {cls:?} packet {p:?} outside the {b}-box at {c:?} (t={t})"
                        ));
                    }
                }

                // Lemmas 7/8: while t ≤ j·dn.
                if t <= j as u64 * self.dn {
                    match cls {
                        Class::N(_) => {
                            if c.y >= geom.e_row(j) && c.x < geom.n_col(j) {
                                return Err(format!(
                                    "Lemma 7: N_{j} packet {p:?} at {c:?} (t={t})"
                                ));
                            }
                        }
                        Class::E(_) => {
                            if c.x >= geom.n_col(j) && c.y < geom.e_row(j) {
                                return Err(format!(
                                    "Lemma 8: E_{j} packet {p:?} at {c:?} (t={t})"
                                ));
                            }
                        }
                    }
                }
            }
        }

        // Lemmas 1/2 via departure counts.
        for i in 1..=l {
            for (kind, slot) in [("N", (i - 1) as usize), ("E", (l + i - 1) as usize)] {
                let now = out[slot];
                let before = self.prev_out[slot];
                if t <= (i as u64 - 1) * self.dn {
                    if now != 0 {
                        return Err(format!(
                            "Lemma 1: {now} {kind}_{i} packets outside the {i}-box at t={t}"
                        ));
                    }
                } else if t <= i as u64 * self.dn && now > before + 1 {
                    return Err(format!(
                        "Lemma 2: {} {kind}_{i} packets left the {i}-box in one step (t={t})",
                        now - before
                    ));
                }
            }
        }
        self.prev_out = out;
        Ok(())
    }
}
