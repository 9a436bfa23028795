//! Chip stack geometry and the thermal conductance network.
//!
//! A [`ChipModel`] is a stack of `L` active layers, each a `rows × cols`
//! grid of cells. Layer 0 is the **top** layer (closest to the heat
//! sink), matching the paper's convention of placing hot modules near
//! the sink. Heat flows:
//!
//! * laterally between 4-neighbour cells within a layer,
//! * vertically between stacked cells through die + bond,
//! * from every top-layer cell through TIM + spreader into a single
//!   lumped sink node, which convects to ambient.

use crate::material::{thickness, Material, AMBIENT_K, SINK_CONVECTION_K_PER_W};
use crate::solver::{solve_steady_state, SolveOptions, Temperatures};

/// Geometry of the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackConfig {
    /// Number of active layers (1 = planar chip).
    pub layers: usize,
    /// Grid rows per layer.
    pub rows: usize,
    /// Grid columns per layer.
    pub cols: usize,
    /// Cell width, metres.
    pub cell_w_m: f64,
    /// Cell height, metres.
    pub cell_h_m: f64,
    /// Die thickness, metres.
    pub die_thickness_m: f64,
    /// Inter-layer bond thickness, metres.
    pub bond_thickness_m: f64,
    /// Lumped sink convection resistance to ambient, K/W.
    pub sink_resistance_k_per_w: f64,
    /// Ambient temperature, K.
    pub ambient_k: f64,
}

impl StackConfig {
    /// A planar (single-layer) chip with square-ish cells of the given
    /// size.
    pub fn planar(rows: usize, cols: usize, cell_w_m: f64, cell_h_m: f64) -> Self {
        Self::stacked(1, rows, cols, cell_w_m, cell_h_m)
    }

    /// A 3D stack of `layers` active layers.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or a size is not positive.
    pub fn stacked(layers: usize, rows: usize, cols: usize, cell_w_m: f64, cell_h_m: f64) -> Self {
        assert!(layers > 0 && rows > 0 && cols > 0, "dimensions must be positive");
        assert!(cell_w_m > 0.0 && cell_h_m > 0.0, "cell size must be positive");
        StackConfig {
            layers,
            rows,
            cols,
            cell_w_m,
            cell_h_m,
            die_thickness_m: thickness::DIE_M,
            bond_thickness_m: thickness::BOND_M,
            sink_resistance_k_per_w: SINK_CONVECTION_K_PER_W,
            ambient_k: AMBIENT_K,
        }
    }

    /// Cells per layer.
    fn cells_per_layer(&self) -> usize {
        self.rows * self.cols
    }

    /// Total unknowns: all cells plus the lumped sink node.
    pub fn nodes(&self) -> usize {
        self.layers * self.cells_per_layer() + 1
    }

    /// Cell area, m².
    fn cell_area_m2(&self) -> f64 {
        self.cell_w_m * self.cell_h_m
    }
}

/// The assembled thermal model: geometry plus a power map.
#[derive(Debug, Clone)]
pub struct ChipModel {
    cfg: StackConfig,
    /// Power per node (cells, then the sink at the end), W.
    power_w: Vec<f64>,
}

impl ChipModel {
    /// Creates a model with an all-zero power map.
    pub fn new(cfg: StackConfig) -> Self {
        let n = cfg.nodes();
        ChipModel { cfg, power_w: vec![0.0; n] }
    }

    /// The stack configuration.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    fn cell_index(&self, layer: usize, row: usize, col: usize) -> usize {
        assert!(layer < self.cfg.layers, "layer {layer} out of range");
        assert!(row < self.cfg.rows && col < self.cfg.cols, "cell ({row},{col}) out of range");
        (layer * self.cfg.rows + row) * self.cfg.cols + col
    }

    /// Sets the power dissipated in one cell, W.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or the power is negative.
    pub fn set_cell_power(&mut self, layer: usize, row: usize, col: usize, watts: f64) {
        assert!(watts >= 0.0, "power must be non-negative");
        let i = self.cell_index(layer, row, col);
        self.power_w[i] = watts;
    }

    /// Adds power to one cell, W.
    pub fn add_cell_power(&mut self, layer: usize, row: usize, col: usize, watts: f64) {
        assert!(watts >= 0.0, "power must be non-negative");
        let i = self.cell_index(layer, row, col);
        self.power_w[i] += watts;
    }

    /// Total dissipated power, W.
    pub fn total_power_w(&self) -> f64 {
        self.power_w.iter().sum()
    }

    /// Builds the sparse conductance adjacency: for each node, a list of
    /// `(neighbour, conductance_w_per_k)`.
    pub(crate) fn conductances(&self) -> Vec<Vec<(usize, f64)>> {
        let cfg = &self.cfg;
        let n = cfg.nodes();
        let sink = n - 1;
        let area = cfg.cell_area_m2();
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];

        let mut connect = |a: usize, b: usize, g: f64| {
            adj[a].push((b, g));
            adj[b].push((a, g));
        };

        // Lateral conduction: silicon slab between adjacent cell centres.
        // Cross-section = die thickness × shared edge; length = pitch.
        for layer in 0..cfg.layers {
            for r in 0..cfg.rows {
                for c in 0..cfg.cols {
                    let i = (layer * cfg.rows + r) * cfg.cols + c;
                    if c + 1 < cfg.cols {
                        let j = i + 1;
                        let g = Material::SILICON.conductivity_w_mk
                            * (cfg.die_thickness_m * cfg.cell_h_m)
                            / cfg.cell_w_m;
                        connect(i, j, g);
                    }
                    if r + 1 < cfg.rows {
                        let j = i + cfg.cols;
                        let g = Material::SILICON.conductivity_w_mk
                            * (cfg.die_thickness_m * cfg.cell_w_m)
                            / cfg.cell_h_m;
                        connect(i, j, g);
                    }
                }
            }
        }

        // Vertical conduction between stacked cells: half a die on each
        // side plus the bond layer, in series.
        for layer in 0..cfg.layers.saturating_sub(1) {
            for cell in 0..cfg.cells_per_layer() {
                let i = layer * cfg.cells_per_layer() + cell;
                let j = (layer + 1) * cfg.cells_per_layer() + cell;
                let r = Material::SILICON.slab_resistance_k_per_w(cfg.die_thickness_m, area)
                    + Material::BOND.slab_resistance_k_per_w(cfg.bond_thickness_m, area);
                connect(i, j, 1.0 / r);
            }
        }

        // Top layer → sink: TIM plus a share of the spreader, lumped as
        // TIM resistance per cell; the sink node then convects to
        // ambient (handled in the solver via `sink_g_amb`).
        for cell in 0..cfg.cells_per_layer() {
            let r_tim = Material::TIM.slab_resistance_k_per_w(thickness::TIM_M, area);
            connect(cell, sink, 1.0 / r_tim);
        }

        adj
    }

    /// Solves for steady-state temperatures with default solver options.
    pub fn solve(&self) -> Temperatures {
        let adj = self.conductances();
        let sink = self.cfg.nodes() - 1;
        solve_steady_state(
            &adj,
            &self.power_w,
            sink,
            1.0 / self.cfg.sink_resistance_k_per_w,
            self.cfg.ambient_k,
            SolveOptions::default(),
        )
        .with_geometry(self.cfg.layers, self.cfg.rows, self.cfg.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_power_is_ambient_everywhere() {
        let chip = ChipModel::new(StackConfig::planar(3, 3, 0.003, 0.003));
        let t = chip.solve();
        assert!((t.max_k() - AMBIENT_K).abs() < 1e-6);
        assert!((t.min_k() - AMBIENT_K).abs() < 1e-6);
    }

    #[test]
    fn uniform_power_heats_by_sink_drop() {
        // All heat must cross the lumped sink resistance: the sink node
        // sits at ambient + P·R; cells are hotter still.
        let mut chip = ChipModel::new(StackConfig::planar(2, 2, 0.003, 0.003));
        for r in 0..2 {
            for c in 0..2 {
                chip.set_cell_power(0, r, c, 5.0);
            }
        }
        let t = chip.solve();
        let sink_rise = 20.0 * SINK_CONVECTION_K_PER_W;
        assert!(t.sink_k() > AMBIENT_K + sink_rise - 0.01);
        assert!(t.min_k() > t.sink_k());
    }

    #[test]
    fn hotspot_is_at_the_hot_cell() {
        let mut chip = ChipModel::new(StackConfig::planar(3, 3, 0.003, 0.003));
        chip.set_cell_power(0, 1, 1, 10.0);
        let t = chip.solve();
        let centre = t.cell_k(0, 1, 1);
        for r in 0..3 {
            for c in 0..3 {
                assert!(centre >= t.cell_k(0, r, c), "centre must be hottest");
            }
        }
    }

    #[test]
    fn deeper_layers_run_hotter_for_same_power() {
        // Two-layer stack, same power in layer 0 vs layer 1 cell: the
        // bottom layer (further from the sink) ends hotter.
        let cfg = StackConfig::stacked(2, 2, 2, 0.003, 0.003);
        let mut top = ChipModel::new(cfg);
        top.set_cell_power(0, 0, 0, 10.0);
        let mut bottom = ChipModel::new(cfg);
        bottom.set_cell_power(1, 0, 0, 10.0);
        assert!(bottom.solve().max_k() > top.solve().max_k());
    }

    #[test]
    fn power_scaling_is_linear() {
        // Linear RC network: doubling power doubles the rise.
        let mk = |p: f64| {
            let mut chip = ChipModel::new(StackConfig::planar(2, 2, 0.003, 0.003));
            chip.set_cell_power(0, 0, 0, p);
            chip.solve().max_k() - AMBIENT_K
        };
        let rise1 = mk(5.0);
        let rise2 = mk(10.0);
        assert!((rise2 - 2.0 * rise1).abs() < 1e-3, "{rise1} vs {rise2}");
    }

    #[test]
    fn energy_conservation_at_sink() {
        // Total heat flow to ambient equals total power:
        // (T_sink − T_amb)/R_sink = P.
        let mut chip = ChipModel::new(StackConfig::stacked(4, 3, 3, 0.0016, 0.0016));
        for l in 0..4 {
            chip.set_cell_power(l, 1, 1, 2.0);
        }
        let t = chip.solve();
        let flow = (t.sink_k() - AMBIENT_K) / SINK_CONVECTION_K_PER_W;
        assert!((flow - 8.0).abs() < 0.01, "flow {flow} vs 8 W");
    }

    #[test]
    fn add_power_accumulates() {
        let mut chip = ChipModel::new(StackConfig::planar(2, 2, 0.003, 0.003));
        chip.add_cell_power(0, 0, 0, 1.0);
        chip.add_cell_power(0, 0, 0, 2.0);
        assert!((chip.total_power_w() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_cell_panics() {
        let mut chip = ChipModel::new(StackConfig::planar(2, 2, 0.003, 0.003));
        chip.set_cell_power(0, 2, 0, 1.0);
    }
}
