//! Shared-face connectivity for the tetrahedral mesh generator.

use std::collections::HashMap;

/// Order-independent key identifying a triangular face by its three
/// node ids (stored sorted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaceKey([usize; 3]);

impl FaceKey {
    pub fn new(mut nodes: [usize; 3]) -> Self {
        nodes.sort_unstable();
        FaceKey(nodes)
    }

    pub fn nodes(&self) -> [usize; 3] {
        self.0
    }
}

/// The four faces of a tetrahedron, `faces[i]` being the face opposite
/// local vertex `i`. Winding is chosen so the normal points *outward*
/// for a positively oriented tet.
#[inline]
pub fn tet_faces(c2n: &[usize; 4]) -> [[usize; 3]; 4] {
    [
        [c2n[1], c2n[3], c2n[2]],
        [c2n[0], c2n[2], c2n[3]],
        [c2n[0], c2n[3], c2n[1]],
        [c2n[0], c2n[1], c2n[2]],
    ]
}

/// Build the cells→cells adjacency (arity 4, `-1` on boundaries) by
/// matching shared faces, plus the list of unmatched (boundary) faces
/// as `(cell, local_face)` pairs.
///
/// Panics if a face is shared by more than two cells (non-manifold
/// input), which would make the particle move ill-defined.
pub fn build_c2c_from_faces(c2n: &[[usize; 4]]) -> (Vec<[i32; 4]>, Vec<(usize, usize)>) {
    /// Face state while pairing: still waiting for a partner, or already
    /// matched (a third occurrence is a non-manifold error).
    enum FaceState {
        Open(usize, usize),
        Closed,
    }
    let mut face_map: HashMap<FaceKey, FaceState> = HashMap::with_capacity(c2n.len() * 2);
    let mut c2c = vec![[-1i32; 4]; c2n.len()];
    for (c, nd) in c2n.iter().enumerate() {
        for (f, fnodes) in tet_faces(nd).into_iter().enumerate() {
            let key = FaceKey::new(fnodes);
            match face_map.get_mut(&key) {
                None => {
                    face_map.insert(key, FaceState::Open(c, f));
                }
                Some(state @ FaceState::Open(..)) => {
                    let FaceState::Open(c2, f2) = *state else {
                        unreachable!()
                    };
                    c2c[c][f] = c2 as i32;
                    c2c[c2][f2] = c as i32;
                    *state = FaceState::Closed;
                }
                Some(FaceState::Closed) => {
                    panic!("non-manifold mesh: face {key:?} shared by >2 cells");
                }
            }
        }
    }
    let mut boundary: Vec<(usize, usize)> = face_map
        .into_values()
        .filter_map(|s| match s {
            FaceState::Open(c, f) => Some((c, f)),
            FaceState::Closed => None,
        })
        .collect();
    boundary.sort_unstable();
    (c2c, boundary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tets sharing the face {1,2,3}.
    fn two_tets() -> Vec<[usize; 4]> {
        vec![[0, 1, 2, 3], [4, 1, 3, 2]]
    }

    #[test]
    fn face_key_is_order_independent() {
        assert_eq!(FaceKey::new([3, 1, 2]), FaceKey::new([2, 3, 1]));
        assert_ne!(FaceKey::new([0, 1, 2]), FaceKey::new([0, 1, 3]));
        assert_eq!(FaceKey::new([3, 1, 2]).nodes(), [1, 2, 3]);
    }

    #[test]
    fn c2c_two_tets() {
        let (c2c, boundary) = build_c2c_from_faces(&two_tets());
        // They share exactly one face: opposite vertex 0 in both.
        assert_eq!(c2c[0][0], 1);
        assert_eq!(c2c[1][0], 0);
        // Remaining 6 faces are boundary.
        assert_eq!(boundary.len(), 6);
        let interior: usize = c2c.iter().flatten().filter(|&&x| x >= 0).count();
        assert_eq!(interior, 2);
    }

    #[test]
    #[should_panic(expected = "non-manifold")]
    fn c2c_rejects_nonmanifold() {
        // Three tets all claiming face {1,2,3}.
        let cells = vec![[0, 1, 2, 3], [4, 1, 3, 2], [5, 1, 2, 3]];
        let _ = build_c2c_from_faces(&cells);
    }
}
