//! Flits and the 3-port deflection switch.

/// What a flit carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// A 32-bit stream data word for a destination input port.
    Data,
    /// A configuration write: `payload` is the new destination entry for
    /// register `dest_port` of the destination leaf's table.
    Config,
}

/// A single-flit packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Destination leaf index.
    pub dest_leaf: u16,
    /// Destination input-port index at the leaf (or config register index).
    pub dest_port: u8,
    /// Source leaf index (for endpoint reordering).
    pub src_leaf: u16,
    /// Per-(source, destination port) sequence number. Deflection routing
    /// can overtake within a stream; the destination leaf restores FIFO
    /// order from this tag (the standard endpoint fix for deflection NoCs).
    pub seq: u32,
    /// Payload word.
    pub payload: u32,
    /// Data or configuration.
    pub kind: FlitKind,
    /// Cycle the flit entered the network (for latency stats and
    /// oldest-first arbitration).
    pub birth: u64,
}

/// Port indices of a 3-port BFT switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchPort {
    /// Toward the left child subtree.
    Left,
    /// Toward the right child subtree.
    Right,
    /// Toward the parent (up).
    Up,
}

/// One T-switch arbitration: route up to three incoming flits to the three
/// output ports without buffering.
///
/// Each flit prefers the port leading to its destination (down into the
/// correct child if the destination lies in this subtree, otherwise up).
/// Flits are served oldest-first; a flit that loses its preferred port is
/// *deflected* to any free port. Returns `(left_out, right_out, up_out)` and
/// the number of deflections.
///
/// `subtree` is the half-open leaf range `[lo, hi)` covered by this switch,
/// `mid` the split between its children. Switches at the root have no `Up`
/// port (`has_up == false`); with at most two live inputs there, deflection
/// down a wrong child always succeeds.
pub fn arbitrate(
    inputs: &mut Vec<Flit>,
    subtree: (u16, u16),
    mid: u16,
    has_up: bool,
) -> ([Option<Flit>; 3], u32) {
    let mut out: [Option<Flit>; 3] = [None, None, None];

    // A lone input wins its preferred port uncontested — the common case on
    // a lightly loaded tree — so the ordering and deflection machinery is
    // skipped entirely. (The one exception: a destination outside every
    // subtree wants Up at the root, which has none; it deflects down the
    // left child exactly as the general path would.)
    if inputs.len() == 1 {
        let flit = inputs.pop().expect("len checked");
        let (lo, hi) = subtree;
        let mut pi = if flit.dest_leaf >= lo && flit.dest_leaf < hi {
            usize::from(flit.dest_leaf >= mid)
        } else {
            2
        };
        let mut deflections = 0;
        if pi == 2 && !has_up {
            pi = 0;
            deflections = 1;
        }
        out[pi] = Some(flit);
        return (out, deflections);
    }

    // Oldest first: smaller birth wins arbitration (FIFO age ordering is the
    // standard deflection-network livelock guard).
    inputs.sort_by_key(|f| (f.birth, f.dest_leaf, f.dest_port, f.payload));

    let mut deflections = 0;

    let port_index = |p: SwitchPort| match p {
        SwitchPort::Left => 0usize,
        SwitchPort::Right => 1,
        SwitchPort::Up => 2,
    };

    for flit in inputs.drain(..) {
        let (lo, hi) = subtree;
        let preferred = if flit.dest_leaf >= lo && flit.dest_leaf < hi {
            if flit.dest_leaf < mid {
                SwitchPort::Left
            } else {
                SwitchPort::Right
            }
        } else {
            SwitchPort::Up
        };
        let pi = port_index(preferred);
        if out[pi].is_none() && (pi != 2 || has_up) {
            out[pi] = Some(flit);
            continue;
        }
        // Deflect to any free output (prefer up, then children).
        deflections += 1;
        let candidates: [usize; 3] = [2, 0, 1];
        let mut placed = false;
        for &c in &candidates {
            if c == 2 && !has_up {
                continue;
            }
            if out[c].is_none() {
                out[c] = Some(flit);
                placed = true;
                break;
            }
        }
        debug_assert!(placed, "3 inputs always fit 3 outputs");
    }

    (out, deflections)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(dest: u16, birth: u64) -> Flit {
        Flit {
            dest_leaf: dest,
            dest_port: 0,
            src_leaf: 0,
            seq: 0,
            payload: 0,
            kind: FlitKind::Data,
            birth,
        }
    }

    #[test]
    fn routes_down_correct_child() {
        let mut ins = vec![flit(1, 0)];
        let (out, d) = arbitrate(&mut ins, (0, 4), 2, true);
        assert!(out[0].is_some()); // leaf 1 < mid 2 → left
        assert_eq!(d, 0);
        let mut ins = vec![flit(3, 0)];
        let (out, _) = arbitrate(&mut ins, (0, 4), 2, true);
        assert!(out[1].is_some());
    }

    #[test]
    fn routes_up_when_outside_subtree() {
        let mut ins = vec![flit(9, 0)];
        let (out, d) = arbitrate(&mut ins, (0, 4), 2, true);
        assert!(out[2].is_some());
        assert_eq!(d, 0);
    }

    #[test]
    fn contention_deflects_younger() {
        let older = flit(1, 5);
        let younger = flit(0, 9);
        let mut ins = vec![younger, older];
        let (out, d) = arbitrate(&mut ins, (0, 4), 2, true);
        // Both want Left; the older flit wins it.
        assert_eq!(out[0].unwrap().birth, 5);
        assert_eq!(d, 1);
        // The younger one was deflected somewhere, not dropped.
        let survivors = out.iter().flatten().count();
        assert_eq!(survivors, 2);
    }

    #[test]
    fn root_has_no_up_port() {
        let mut ins = vec![flit(0, 0), flit(0, 1)];
        let (out, d) = arbitrate(&mut ins, (0, 4), 2, false);
        assert!(out[2].is_none());
        assert_eq!(out.iter().flatten().count(), 2);
        assert_eq!(d, 1);
    }

    #[test]
    fn three_inputs_three_outputs_nothing_lost() {
        let mut ins = vec![flit(0, 0), flit(1, 1), flit(2, 2)];
        let (out, _) = arbitrate(&mut ins, (0, 4), 2, true);
        assert_eq!(out.iter().flatten().count(), 3);
    }
}
