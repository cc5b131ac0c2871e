//! ASCII rendering of receptive-field masks for the reproduction ledger
//! and the examples (the paper's Fig. 5 rendered as characters).

/// Reshape one HCU's flat mask row over the 28-feature × `n_bins` input
/// layout of the encoded Higgs data and render it, one text row per
/// original feature, prefixed with the feature name. This is the terminal
/// version of inspecting "where the HCU looks" per physics quantity.
pub fn render_feature_mask(mask_row: &[f32], feature_names: &[String], n_bins: usize) -> String {
    assert!(n_bins > 0, "n_bins must be positive");
    assert_eq!(
        mask_row.len(),
        feature_names.len() * n_bins,
        "mask width {} does not match {} features x {} bins",
        mask_row.len(),
        feature_names.len(),
        n_bins
    );
    let width = feature_names.iter().map(|n| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (f, name) in feature_names.iter().enumerate() {
        out.push_str(&format!("{name:width$} |"));
        for b in 0..n_bins {
            out.push(if mask_row[f * n_bins + b] >= 0.5 {
                '#'
            } else {
                '.'
            });
        }
        let active = (0..n_bins)
            .filter(|&b| mask_row[f * n_bins + b] >= 0.5)
            .count();
        out.push_str(&format!("| {active}/{n_bins}\n"));
    }
    out
}

/// A compact one-line histogram (sparkline) of non-negative counts.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let t = ((v - lo) / span).clamp(0.0, 1.0);
            BARS[(t * (BARS.len() - 1) as f64).round() as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_mask_rendering_groups_by_feature() {
        let names = vec!["lepton_pt".to_string(), "m_bb".to_string()];
        let mask = vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let s = render_feature_mask(&mask, &names, 3);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("lepton_pt"));
        assert!(lines[0].contains("|#..|"));
        assert!(lines[0].trim_end().ends_with("1/3"));
        assert!(lines[1].contains("|###|"));
        assert!(lines[1].trim_end().ends_with("3/3"));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn feature_mask_rejects_wrong_width() {
        let names = vec!["a".to_string()];
        let _ = render_feature_mask(&[1.0, 0.0, 1.0], &names, 2);
    }

    #[test]
    fn sparkline_spans_the_ramp() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }
}
