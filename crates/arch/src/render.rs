//! ASCII rendering of a fabric — regenerates the survey's Figure 2
//! ("Illustration of a simple CGRA"): the mesh topology, per-cell
//! capabilities, and the configuration-register legend.

use crate::fabric::{Fabric, IoPolicy, Topology};

/// Render the fabric as ASCII art with a capability legend.
pub fn render_fabric(f: &Fabric) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} — {}x{} {}, RF={}{}, contexts={}, banks={}{}",
        f.name,
        f.rows,
        f.cols,
        match f.topology {
            Topology::Mesh => "mesh",
            Topology::MeshPlus => "mesh+diagonals",
            Topology::Torus => "torus",
            Topology::OneHop => "one-hop mesh",
        },
        f.rf_size,
        if f.rf_rotating { " (rotating)" } else { "" },
        f.context_depth,
        f.mem_banks,
        if f.hw_loop { ", hw-loop" } else { "" },
    );
    let _ = writeln!(s);
    for r in 0..f.rows {
        // Cell row.
        for c in 0..f.cols {
            let pe = f.pe_at(r, c);
            let caps = f.caps(pe);
            let m = if caps.mul { 'M' } else { '.' };
            let d = if caps.mem { 'D' } else { '.' };
            let io = if caps.io && (f.io_policy == IoPolicy::Anywhere || f.is_border(pe)) {
                'I'
            } else {
                '.'
            };
            let _ = write!(s, "[{:>3} {m}{d}{io}]", pe.0);
            if c + 1 < f.cols {
                let _ = write!(s, "--");
            }
        }
        let _ = writeln!(s);
        // Vertical links.
        if r + 1 < f.rows {
            for c in 0..f.cols {
                let _ = write!(s, "    |    ");
                if c + 1 < f.cols {
                    let _ = write!(s, " ");
                }
            }
            let _ = writeln!(s);
        }
    }
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "legend: M = multiplier, D = data-memory port, I = stream I/O"
    );
    let _ = writeln!(
        s,
        "each cell: FU + {}-entry RF + configuration register (one context per II slot)",
        f.rf_size
    );
    s
}

/// Shade ramp for [`render_heatmap_grid`], idle → saturated.
const SHADES: [char; 5] = ['.', '-', '+', '#', '@'];

/// Render a per-cell integer field (issue-slot occupancy, register
/// pressure) as an ASCII heatmap over a `rows` x `cols` grid (PE ids
/// row-major), in the style of [`render_fabric`]. `values` is indexed
/// by PE id; `max` is the full-scale value (e.g. the II for issue
/// slots). Pure formatting — deterministic for a given input. Report
/// viewers call it on serialized heatmap data, without the fabric.
pub fn render_heatmap_grid(
    name: &str,
    rows: u16,
    cols: u16,
    values: &[u32],
    max: u32,
    title: &str,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{title} — {name} ({rows}x{cols}, full scale {max})");
    for r in 0..rows {
        for c in 0..cols {
            let v = values
                .get(r as usize * cols as usize + c as usize)
                .copied()
                .unwrap_or(0);
            let shade = if max == 0 || v == 0 {
                SHADES[0]
            } else {
                let idx = (v as u64 * (SHADES.len() as u64 - 1)).div_ceil(max as u64);
                SHADES[(idx as usize).min(SHADES.len() - 1)]
            };
            let _ = write!(s, "[{v:>3}{shade}]");
            if c + 1 < cols {
                let _ = write!(s, " ");
            }
        }
        let _ = writeln!(s);
    }
    let _ = writeln!(s, "legend: . idle  - light  + busy  # heavy  @ saturated");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;

    #[test]
    fn heatmap_shades_scale_with_value() {
        let render = || render_heatmap_grid("mesh", 2, 2, &[0, 1, 2, 4], 4, "fu occupancy");
        let r = render();
        assert!(r.contains("fu occupancy"));
        assert!(r.contains("[  0.]"), "{r}");
        assert!(r.contains("[  1-]"), "{r}");
        assert!(r.contains("[  2+]"), "{r}");
        assert!(r.contains("[  4@]"), "{r}");
        // Deterministic.
        assert_eq!(r, render());
    }

    #[test]
    fn render_contains_all_cells() {
        let f = Fabric::figure2();
        let r = render_fabric(&f);
        for pe in f.pe_ids() {
            assert!(r.contains(&format!("{:>3}", pe.0)), "missing {pe}");
        }
        assert!(r.contains("legend"));
    }

    #[test]
    fn heterogeneous_render_marks_caps() {
        let f = Fabric::adres_like(4, 4);
        let r = render_fabric(&f);
        assert!(r.contains('M'));
        assert!(r.contains('D'));
        assert!(r.contains('I'));
    }
}
