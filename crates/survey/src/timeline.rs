//! Regeneration of the survey's Figure 4: publications per year over
//! two decades, with technique-era annotations.

use crate::dataset::all_papers;
use crate::paper::Tag;
use serde::Serialize;
use std::collections::BTreeMap;

/// One bar of the histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TimelinePoint {
    pub year: u16,
    pub publications: usize,
}

/// Mapping-focused publications per year (the Fig. 4 bars). Years with
/// zero publications inside the span are included.
pub fn histogram() -> Vec<TimelinePoint> {
    let papers = all_papers();
    let mut counts: BTreeMap<u16, usize> = BTreeMap::new();
    let (mut lo, mut hi) = (u16::MAX, 0u16);
    for p in &papers {
        if p.mapping_focused {
            *counts.entry(p.year).or_insert(0) += 1;
            lo = lo.min(p.year);
            hi = hi.max(p.year);
        }
    }
    (lo..=hi)
        .map(|year| TimelinePoint {
            year,
            publications: counts.get(&year).copied().unwrap_or(0),
        })
        .collect()
}

/// First and last year each technique era appears (the Fig. 4
/// annotations).
pub fn era_spans() -> BTreeMap<Tag, (u16, u16)> {
    let mut spans: BTreeMap<Tag, (u16, u16)> = BTreeMap::new();
    for p in all_papers() {
        for &tag in &p.tags {
            let e = spans.entry(tag).or_insert((p.year, p.year));
            e.0 = e.0.min(p.year);
            e.1 = e.1.max(p.year);
        }
    }
    spans
}

/// ASCII rendering of the figure.
pub fn render_timeline() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 4: publications on CGRA mapping per year (survey corpus; not comprehensive)"
    );
    for pt in histogram() {
        let _ = writeln!(
            s,
            "{:>4} | {:<18} {}",
            pt.year,
            "#".repeat(pt.publications),
            pt.publications
        );
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "technique eras (first..last appearance in the corpus):");
    for (tag, (lo, hi)) in era_spans() {
        let _ = writeln!(s, "  {:<28} {lo}..{hi}", tag.label());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_totals_match_corpus() {
        let total: usize = histogram().iter().map(|p| p.publications).sum();
        let expected = all_papers().iter().filter(|p| p.mapping_focused).count();
        assert_eq!(total, expected);
    }

    #[test]
    fn effort_intensifies_in_second_decade() {
        // The paper: "the community has intensified the efforts in the
        // last decade".
        let h = histogram();
        let first: usize = h
            .iter()
            .filter(|p| p.year <= 2010)
            .map(|p| p.publications)
            .sum();
        let second: usize = h
            .iter()
            .filter(|p| p.year >= 2011)
            .map(|p| p.publications)
            .sum();
        assert!(second > first, "{second} !> {first}");
    }

    #[test]
    fn clear_increase_in_2021() {
        // The paper: "a clear increase in 2021".
        let h = histogram();
        let y2021 = h.iter().find(|p| p.year == 2021).unwrap().publications;
        let max_other = h
            .iter()
            .filter(|p| p.year != 2021)
            .map(|p| p.publications)
            .max()
            .unwrap();
        assert!(
            y2021 >= max_other,
            "2021 ({y2021}) vs max other ({max_other})"
        );
    }

    #[test]
    fn era_annotations_match_the_figure() {
        let spans = era_spans();
        // Modulo scheduling "considered since the beginning".
        assert!(spans[&Tag::ModuloScheduling].0 <= 2003);
        // Branch support started in the early 2000s.
        assert!(spans[&Tag::FullPredication].0 <= 2002);
        // Memory-aware methods gained interest around 2010.
        let mem = spans[&Tag::MemoryAware];
        assert!((2008..=2013).contains(&mem.0), "{mem:?}");
        // Hardware loops are a late-2010s topic.
        assert!(spans[&Tag::HardwareLoops].0 >= 2015);
        // Machine-learning mapping appears at the end of the decade.
        assert!(spans[&Tag::MachineLearning].0 >= 2018);
    }

    #[test]
    fn render_covers_all_years() {
        let s = render_timeline();
        assert!(s.contains("1998") || s.contains("2001"));
        assert!(s.contains("2021"));
        assert!(s.contains("Modulo scheduling"));
    }
}
