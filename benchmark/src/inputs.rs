//! Seeded workload inputs: tile-block floorplans. Each stream takes its
//! own salted sub-seed, so the same `--seed` always yields the same inputs
//! and no stream shifts when another one is drawn further.

use deepoheat_grf::TilePowerMap;
use deepoheat_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tiles per side of a floorplan (the paper's 20 × 20 tile maps).
pub const TILES: usize = 20;
/// Sensor-grid side the branch net reads (21 × 21 = 441 sensors).
pub const GRID_SIDE: usize = 21;
/// Blocks placed on every floorplan.
const BLOCKS: usize = 4;

/// Sub-seed salts, one per input stream.
pub mod salt {
    /// Floorplans of `design_loop` and `reference`.
    pub const DESIGNS: u64 = 0x6465_7369_676e_7301;
}

/// A generator for one salted input stream.
pub fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt)
}

/// One random tile-block floorplan: four rectangular IP blocks of 3 to 6
/// tiles per side at random positions (overlaps accumulate), each with a
/// unit power in `[0.5, 1.5)`, interpolated onto the 21 × 21 sensor grid.
pub fn floorplan(rng: &mut StdRng) -> Matrix {
    let mut map = TilePowerMap::new(TILES, TILES);
    for _ in 0..BLOCKS {
        let height = rng.gen_range(3..=6);
        let width = rng.gen_range(3..=6);
        let row = rng.gen_range(0..=TILES - height);
        let col = rng.gen_range(0..=TILES - width);
        let power = rng.gen_range(0.5..1.5);
        map.add_block(row, col, height, width, power)
            .expect("invariant: block bounds are drawn inside the map");
    }
    map.to_grid(GRID_SIDE)
}

/// A floorplan flattened into the `1 × 441` branch-input row.
pub fn branch_row(map: &Matrix) -> Matrix {
    Matrix::from_vec(1, map.rows() * map.cols(), map.as_slice().to_vec())
        .expect("invariant: the row holds every map entry")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn same_seed_gives_identical_designs() {
        let draw = |seed| {
            let mut rng = stream(seed, salt::DESIGNS);
            (0..16).map(|_| bits(&floorplan(&mut rng))).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        let designs = draw(11);
        for (i, a) in designs.iter().enumerate() {
            assert!(designs[i + 1..].iter().all(|b| b != a), "design {i} repeats");
        }
    }

    #[test]
    fn designs_are_sensor_grid_power_maps() {
        let map = floorplan(&mut stream(3, salt::DESIGNS));
        assert_eq!(map.shape(), (GRID_SIDE, GRID_SIDE));
        assert!(map.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(map.as_slice().iter().any(|v| *v > 0.0));
        assert_eq!(branch_row(&map).shape(), (1, GRID_SIDE * GRID_SIDE));
    }
}
