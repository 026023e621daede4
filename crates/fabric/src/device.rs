//! The FPGA device grid: SLRs, resource columns, tiles.

use netlist::Resources;

/// Kind of a resource column in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// Configurable logic (LUTs + FFs).
    Clb,
    /// Block RAM column.
    Bram,
    /// DSP48 column.
    Dsp,
}

impl ColumnKind {
    /// Resources of one tile in a column of this kind.
    ///
    /// A tile is the model's unit of fabric area (roughly half a clock
    /// region's worth of one column). The capacities are chosen so the whole
    /// grid sums to XCU50-class totals (Sec. 7.1: 751,793 LUTs, ~2,300
    /// BRAM18s with developer-visible carving, 5,936 DSPs).
    pub fn tile_resources(self) -> Resources {
        match self {
            ColumnKind::Clb => Resources {
                luts: 240,
                ffs: 480,
                bram18: 0,
                dsp: 0,
            },
            ColumnKind::Bram => Resources {
                luts: 0,
                ffs: 0,
                bram18: 6,
                dsp: 0,
            },
            ColumnKind::Dsp => Resources {
                luts: 0,
                ffs: 0,
                bram18: 0,
                dsp: 15,
            },
        }
    }
}

/// A rectangular region of tiles, half-open in neither axis: covers columns
/// `x0..x0+w` and rows `y0..y0+h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Leftmost column.
    pub x0: u32,
    /// Bottom row.
    pub y0: u32,
    /// Width in columns.
    pub w: u32,
    /// Height in rows.
    pub h: u32,
}

impl Rect {
    /// Creates a rectangle.
    pub const fn new(x0: u32, y0: u32, w: u32, h: u32) -> Rect {
        Rect { x0, y0, w, h }
    }

    /// Whether `self` and `other` share any tile.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x0 < other.x0 + other.w
            && other.x0 < self.x0 + self.w
            && self.y0 < other.y0 + other.h
            && other.y0 < self.y0 + self.h
    }

    /// Whether the tile `(x, y)` lies inside.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x0 && x < self.x0 + self.w && y >= self.y0 && y < self.y0 + self.h
    }

    /// Number of tiles covered.
    pub fn area(&self) -> u32 {
        self.w * self.h
    }

    /// Centre of the rectangle in tile coordinates.
    pub fn center(&self) -> (f64, f64) {
        (
            self.x0 as f64 + self.w as f64 / 2.0,
            self.y0 as f64 + self.h as f64 / 2.0,
        )
    }
}

/// A modelled FPGA device: a `width × height` grid of tiles in vertically
/// stacked SLRs, with designated shell and linking-network column strips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Device name.
    pub name: String,
    /// Grid width in columns.
    pub width: u32,
    /// Grid height in rows (all SLRs).
    pub height: u32,
    /// Rows per SLR; `height` is a multiple of this.
    pub slr_height: u32,
    /// Per-column resource kinds, `width` entries.
    pub columns: Vec<ColumnKind>,
    /// Columns reserved for the vendor static shell (PCIe etc., Sec. 2.5).
    pub shell_cols: Vec<u32>,
    /// Columns reserved for the linking network strip (L1 DFX, Fig. 3).
    pub noc_cols: Vec<u32>,
}

impl Device {
    /// The Alveo U50's XCU50 model used throughout the paper's evaluation.
    ///
    /// 50 columns × 80 rows in two SLRs. BRAM columns at irregular offsets
    /// {6, 9, 18, 31, 43} and DSP columns at {12, 21, 33, 46}; columns 0–1 hold
    /// the static shell and columns 24–25 the linking-network strip.
    pub fn xcu50() -> Device {
        let bram_cols = [6u32, 9, 18, 31, 43];
        let dsp_cols = [12u32, 21, 33, 46];
        let columns = (0..50)
            .map(|c| {
                if bram_cols.contains(&c) {
                    ColumnKind::Bram
                } else if dsp_cols.contains(&c) {
                    ColumnKind::Dsp
                } else {
                    ColumnKind::Clb
                }
            })
            .collect();
        Device {
            name: "xcu50".into(),
            width: 50,
            height: 80,
            slr_height: 40,
            columns,
            shell_cols: vec![0, 1],
            noc_cols: vec![24, 25],
        }
    }

    /// Number of SLRs.
    pub fn slr_count(&self) -> u32 {
        self.height / self.slr_height
    }

    /// The SLR index of row `y`.
    pub fn slr_of_row(&self, y: u32) -> u32 {
        y / self.slr_height
    }

    /// Whether a rectangle crosses an SLR boundary (costs extra delay,
    /// Sec. 2.5).
    pub fn crosses_slr(&self, rect: &Rect) -> bool {
        self.slr_of_row(rect.y0) != self.slr_of_row(rect.y0 + rect.h - 1)
    }

    /// Whether column `x` is reserved (shell or NoC strip).
    pub fn is_reserved_col(&self, x: u32) -> bool {
        self.shell_cols.contains(&x) || self.noc_cols.contains(&x)
    }

    /// Resources of the tile at `(x, y)`; reserved columns yield zero.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the grid.
    pub fn tile_resources(&self, x: u32, y: u32) -> Resources {
        assert!(
            x < self.width && y < self.height,
            "tile ({x},{y}) outside {}x{}",
            self.width,
            self.height
        );
        if self.is_reserved_col(x) {
            Resources::default()
        } else {
            self.columns[x as usize].tile_resources()
        }
    }

    /// Total resources within a rectangle (reserved columns contribute zero).
    pub fn region_resources(&self, rect: &Rect) -> Resources {
        let mut total = Resources::default();
        for x in rect.x0..rect.x0 + rect.w {
            for _y in rect.y0..rect.y0 + rect.h {
                total += self.tile_resources(x, rect.y0);
            }
        }
        total
    }

    /// Total user-visible resources (everything outside reserved columns).
    pub fn user_resources(&self) -> Resources {
        self.region_resources(&Rect::new(0, 0, self.width, self.height))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xcu50_totals_are_in_class() {
        let d = Device::xcu50();
        let r = d.user_resources();
        // Paper Sec. 7.1: 751,793 LUTs, ~2,300 BRAM18, 5,936 DSPs available.
        assert!(r.luts > 650_000 && r.luts < 850_000, "LUTs {}", r.luts);
        assert!(r.bram18 > 2_000 && r.bram18 < 3_000, "BRAM {}", r.bram18);
        assert!(r.dsp > 4_000 && r.dsp < 7_000, "DSP {}", r.dsp);
        assert_eq!(d.slr_count(), 2);
    }

    #[test]
    fn reserved_columns_hold_no_user_resources() {
        let d = Device::xcu50();
        assert_eq!(d.tile_resources(0, 0), Resources::default());
        assert_eq!(d.tile_resources(24, 10), Resources::default());
        assert!(d.tile_resources(3, 0).luts > 0);
    }

    #[test]
    fn rect_overlap_cases() {
        let a = Rect::new(0, 0, 10, 10);
        assert!(a.overlaps(&Rect::new(5, 5, 10, 10)));
        assert!(!a.overlaps(&Rect::new(10, 0, 5, 5))); // edge-adjacent
        assert!(!a.overlaps(&Rect::new(0, 10, 5, 5)));
        assert!(a.overlaps(&a));
        assert!(a.contains(9, 9));
        assert!(!a.contains(10, 9));
        assert_eq!(a.area(), 100);
    }

    #[test]
    fn slr_crossing_detection() {
        let d = Device::xcu50();
        assert!(!d.crosses_slr(&Rect::new(2, 0, 5, 40)));
        assert!(d.crosses_slr(&Rect::new(2, 35, 5, 10)));
        assert_eq!(d.slr_of_row(39), 0);
        assert_eq!(d.slr_of_row(40), 1);
    }

    #[test]
    fn heterogeneous_columns_change_region_mix() {
        let d = Device::xcu50();
        let with_bram = d.region_resources(&Rect::new(4, 0, 4, 10)); // cols 4-7 incl. BRAM col 6
        let without = d.region_resources(&Rect::new(13, 0, 4, 10)); // cols 13-16, all CLB
        assert!(with_bram.bram18 > 0);
        assert_eq!(without.bram18, 0);
        assert!(without.luts > with_bram.luts);
    }
}
