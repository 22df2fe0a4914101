//! Forward-pass floating-point operations, computed from tensor shapes
//! and token counts (matmuls and attention only) — never measured.

use taste_model::Adtd;

/// One encoder layer over `q` query rows attending to `kv` key rows:
/// the Q and O projections on the query rows, K and V on the key rows,
/// the two attention matmuls, and the two feed-forward matmuls.
fn layer_flops(hidden: f64, inter: f64, q: f64, kv: f64) -> f64 {
    2.0 * hidden * hidden * (2.0 * q + 2.0 * kv) + 4.0 * q * kv * hidden + 4.0 * q * hidden * inter
}

/// Operations to serve one chunk: the metadata tower over `meta_tokens`
/// and its head over `ncols` columns, plus — when Phase 2 ran — the
/// content tower over `content_tokens` (attending to metadata and
/// content) and its head over `scanned` columns. `feat` is the width of
/// the non-textual feature row each head also reads.
pub fn chunk_flops(
    model: &Adtd,
    feat: usize,
    meta_tokens: usize,
    ncols: usize,
    content: Option<(usize, usize)>,
) -> f64 {
    let cfg = &model.cfg;
    let (h, i, layers) = (
        cfg.hidden as f64,
        cfg.intermediate as f64,
        cfg.layers as f64,
    );
    let (ntypes, feat, tm) = (model.ntypes as f64, feat as f64, meta_tokens as f64);
    let mh = cfg.meta_head_hidden as f64;
    let mut flops =
        layers * layer_flops(h, i, tm, tm) + ncols as f64 * 2.0 * ((h + feat) * mh + mh * ntypes);
    if let Some((content_tokens, scanned)) = content {
        let tc = content_tokens as f64;
        let ch = cfg.content_head_hidden as f64;
        flops += layers * layer_flops(h, i, tc, tm + tc);
        flops += scanned as f64 * 2.0 * ((2.0 * h + feat) * ch + ch * ntypes);
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use taste_model::ModelConfig;
    use taste_tokenizer::{Tokenizer, VocabBuilder};

    #[test]
    fn flops_follow_the_shapes() {
        let mut b = VocabBuilder::new();
        b.add_words(["a", "a"]);
        let cfg = ModelConfig::tiny();
        let model = Adtd::new(cfg, Tokenizer::new(b.build(10, 1)), 5, 0);
        let (h, i) = (cfg.hidden as f64, cfg.intermediate as f64);
        let meta_only = chunk_flops(&model, 3, 10, 2, None);
        let layer = 2.0 * h * h * 40.0 + 4.0 * 100.0 * h + 4.0 * 10.0 * h * i;
        let head = 2.0 * 2.0 * ((h + 3.0) * 24.0 + 24.0 * 5.0);
        assert_eq!(meta_only, layer + head);
        // Phase 2 only adds work, and more content tokens add more.
        let small = chunk_flops(&model, 3, 10, 2, Some((4, 1)));
        let large = chunk_flops(&model, 3, 10, 2, Some((8, 1)));
        assert!(meta_only < small && small < large);
    }
}
