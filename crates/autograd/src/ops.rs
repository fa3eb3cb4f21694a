//! Forward op constructors on [`Tape`].
//!
//! Every constructor has two modes. On a training tape the value is
//! computed eagerly and retained for backward. On an inference tape
//! ([`Tape::inference`]) the constructor performs the same shape checks and
//! draws the same RNG values (masks are part of the op record either way),
//! but pushes a shape-only placeholder; [`Tape::run`] materializes it later
//! with operand liveness, so intermediates can be recycled the moment their
//! last consumer has run.

use crate::tape::{pairnorm_forward, AdjId, NodeId, Op, SkipConvCache, Tape};
use skipnode_sparse::{CsrMatrix, COL_SKIP};
use skipnode_tensor::segment::segment_reduce_into;
use skipnode_tensor::{workspace, Matrix, ReadoutKind, SegmentTable, SplitRng};
use std::sync::Arc;

/// Operand bundle for the generalized fused masked layer
/// ([`Tape::skip_conv_step`]). Describes one activated graph-convolution
/// step `relu(support · W [+ b]) [+ residual]` where
/// `support = (1−α)·Ã·x + α·h0` when an initial residual is present (GCNII)
/// and plain `Ã·x` otherwise, with the identity map
/// `z = (1−β)·support + β·support·W` replacing the plain GEMM when
/// `identity_map` is set.
#[derive(Debug, Clone, Copy)]
pub struct FusedStep {
    /// Layer input propagated through the adjacency.
    pub x: NodeId,
    /// Skip branch: rows with `take_skip[i]` copy this node's row verbatim.
    /// Must already have the output shape `n × d_out`.
    pub skip: NodeId,
    /// Weight matrix (`d_in × d_out`).
    pub w: NodeId,
    /// Optional bias row (`1 × d_out`).
    pub b: Option<NodeId>,
    /// GCNII-style initial residual `(h0, α)`: the propagation is mixed
    /// with `h0` *before* the GEMM. `h0` must be `n × d_in`.
    pub init_residual: Option<(NodeId, f32)>,
    /// GCNII identity-map coefficient β: `z = (1−β)·support + β·support·W`.
    /// Requires `d_in == d_out`.
    pub identity_map: Option<f32>,
    /// ResGCN-style residual added *after* the ReLU on active rows. Must be
    /// `n × d_out`.
    pub residual: Option<NodeId>,
}

/// Borrowed operand values for [`skip_conv_compute`], mirroring
/// [`FusedStep`] with matrices in place of tape nodes.
pub(crate) struct SkipConvArgs<'a> {
    pub mat: &'a CsrMatrix,
    pub xv: &'a Matrix,
    pub wv: &'a Matrix,
    pub bv: Option<&'a Matrix>,
    pub sv: &'a Matrix,
    pub init: Option<(&'a Matrix, f32)>,
    pub beta: Option<f32>,
    pub resv: Option<&'a Matrix>,
}

/// Compute the generalized fused SkipNode layer value:
/// `row_combine(relu(support·W̃ [+ b]) [+ res], skip, mask)` with the
/// SpMM/GEMM restricted to the active (non-skipped) rows.
///
/// Returns `(value, gemm_left, relu_active)`:
/// - `gemm_left` is the compact GEMM left operand (`(Ã x)`, or the
///   initial-residual support), kept for the backward `dW` product;
/// - `relu_active` holds the pre-residual ReLU activations on active rows
///   when a post-activation residual is fused (the residual add hides the
///   ReLU mask from the output); `0×0` otherwise.
///
/// Every arithmetic step replays the unfused op chain's elementwise order
/// (`lin_comb` accumulation, bias-then-ReLU, post-ReLU residual add), so
/// the fused value is bit-identical to the eager chain. Shared between the
/// eager constructor and the inference executor so the two paths cannot
/// drift (they are asserted bit-identical by the equivalence tests).
pub(crate) fn skip_conv_compute(
    args: &SkipConvArgs<'_>,
    active: &[u32],
    col_map: &[u32],
) -> (Matrix, Matrix, Matrix) {
    let n = col_map.len();
    let d_out = args.wv.cols();
    // Compact gather: P = (Ã x) on active rows only.
    let mut p = workspace::take_scratch(active.len(), args.xv.cols());
    args.mat.spmm_rows_subset(args.xv, active, &mut p);
    // Initial residual: support = (1−α)·P + α·h0 (gathered), replaying
    // lin_comb's zero-init + add_scaled accumulation order.
    let s = match args.init {
        None => p,
        Some((h0, alpha)) => {
            let mut s = workspace::take(active.len(), p.cols());
            for (local, &r) in active.iter().enumerate() {
                let dst = s.row_mut(local);
                for (d, &pv) in dst.iter_mut().zip(p.row(local)) {
                    *d += (1.0 - alpha) * pv;
                }
                for (d, &hv) in dst.iter_mut().zip(h0.row(r as usize)) {
                    *d += alpha * hv;
                }
            }
            workspace::give(p);
            s
        }
    };
    // Compact GEMM: T = S·W, |active| × d_out.
    let mut t = workspace::take_scratch(active.len(), d_out);
    s.matmul_into(args.wv, &mut t);
    // Identity map (z = (1−β)·S + β·T), optional bias, ReLU.
    let mut z = match args.beta {
        None => t,
        Some(beta) => {
            let mut z = workspace::take(active.len(), d_out);
            z.add_scaled(&s, 1.0 - beta);
            z.add_scaled(&t, beta);
            workspace::give(t);
            z
        }
    };
    match args.bv {
        Some(bv) => {
            for local in 0..z.rows() {
                for (v, &bias) in z.row_mut(local).iter_mut().zip(bv.row(0)) {
                    *v = (*v + bias).max(0.0);
                }
            }
        }
        None => {
            for v in z.as_mut_slice() {
                *v = v.max(0.0);
            }
        }
    }
    // Scatter: skipped rows copy the skip branch verbatim; active rows add
    // the post-activation residual when present.
    let mut value = workspace::take_scratch(n, d_out);
    for (r, &m) in col_map.iter().enumerate() {
        let dst = value.row_mut(r);
        if m == COL_SKIP {
            dst.copy_from_slice(args.sv.row(r));
        } else {
            dst.copy_from_slice(z.row(m as usize));
            if let Some(res) = args.resv {
                for (v, &rv) in dst.iter_mut().zip(res.row(r)) {
                    *v += rv;
                }
            }
        }
    }
    let relu_active = if args.resv.is_some() {
        z
    } else {
        workspace::give(z);
        Matrix::zeros(0, 0)
    };
    (value, s, relu_active)
}

impl Tape {
    fn rg(&self, id: NodeId) -> bool {
        self.requires_grad(id)
    }

    fn infer(&self) -> bool {
        self.is_inference()
    }

    /// Dense product `a * b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, inner) = self.shape(a);
        let (b_rows, cols) = self.shape(b);
        assert_eq!(inner, b_rows, "matmul shape mismatch");
        if self.infer() {
            return self.push_pending(rows, cols, Op::MatMul(a, b));
        }
        let value = self.value(a).matmul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::MatMul(a, b), rg)
    }

    /// Sparse propagation `Ã * x`.
    pub fn spmm(&mut self, adj: AdjId, x: NodeId) -> NodeId {
        let rows = self.adjs[adj.0].mat.rows();
        let cols = self.shape(x).1;
        if self.infer() {
            return self.push_pending(rows, cols, Op::Spmm { adj: adj.0, x });
        }
        let value = self.adjs[adj.0].mat.spmm(self.value(x));
        let rg = self.rg(x);
        self.push(value, Op::Spmm { adj: adj.0, x }, rg)
    }

    /// `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add_scaled(a, b, 1.0)
    }

    /// `a + c * b`.
    pub fn add_scaled(&mut self, a: NodeId, b: NodeId, c: f32) -> NodeId {
        let (rows, cols) = self.shape(a);
        assert_eq!((rows, cols), self.shape(b), "add_scaled shape mismatch");
        if self.infer() {
            return self.push_pending(rows, cols, Op::AddScaled(a, b, c));
        }
        let mut value = workspace::take_copy(self.value(a));
        value.add_scaled(self.value(b), c);
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::AddScaled(a, b, c), rg)
    }

    /// `c * x`.
    pub fn scale(&mut self, x: NodeId, c: f32) -> NodeId {
        if self.infer() {
            let (rows, cols) = self.shape(x);
            return self.push_pending(rows, cols, Op::Scale(x, c));
        }
        let value = self.value(x) * c;
        let rg = self.rg(x);
        self.push(value, Op::Scale(x, c), rg)
    }

    /// Broadcast bias add: `x (n×d) + bias (1×d)`.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let (rows, cols) = self.shape(x);
        assert_eq!(self.shape(bias).0, 1, "bias must be a row vector");
        assert_eq!(self.shape(bias).1, cols, "bias width mismatch");
        if self.infer() {
            return self.push_pending(rows, cols, Op::AddBias(x, bias));
        }
        let mut value = workspace::take_copy(self.value(x));
        for r in 0..value.rows() {
            let row = value.row_mut(r);
            for (v, &bv) in row.iter_mut().zip(self.val(bias.0).row(0)) {
                *v += bv;
            }
        }
        let rg = self.rg(x) || self.rg(bias);
        self.push(value, Op::AddBias(x, bias), rg)
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        if self.infer() {
            let (rows, cols) = self.shape(x);
            return self.push_pending(rows, cols, Op::Relu(x));
        }
        let value = self.value(x).relu();
        let rg = self.rg(x);
        self.push(value, Op::Relu(x), rg)
    }

    /// Inverted dropout with rate `p` (no-op when `p == 0`).
    pub fn dropout(&mut self, x: NodeId, p: f64, rng: &mut SplitRng) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0,1)");
        if p == 0.0 {
            return x;
        }
        let scale = (1.0 / (1.0 - p)) as f32;
        let (rows, cols) = self.shape(x);
        // The mask is drawn in both modes, so eager and inference forwards
        // consume identical RNG streams.
        let mut mask = vec![0.0f32; rows * cols];
        rng.fill_mask(&mut mask, p, 0.0, scale);
        if self.infer() {
            return self.push_pending(rows, cols, Op::Mask { x, mask, rate: p });
        }
        let mut value = workspace::take_copy(self.value(x));
        for (v, &m) in value.as_mut_slice().iter_mut().zip(&mask) {
            *v *= m;
        }
        let rg = self.rg(x);
        self.push(value, Op::Mask { x, mask, rate: p }, rg)
    }

    /// Row-level dropout (GRAND's random propagation masks whole node
    /// feature rows), with inverted scaling.
    pub fn dropout_rows(&mut self, x: NodeId, p: f64, rng: &mut SplitRng) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0,1)");
        if p == 0.0 {
            return x;
        }
        let scale = (1.0 / (1.0 - p)) as f32;
        let (rows, cols) = self.shape(x);
        let mut factors = vec![0.0f32; rows];
        rng.fill_mask(&mut factors, p, 0.0, scale);
        if self.infer() {
            return self.push_pending(
                rows,
                cols,
                Op::RowMask {
                    x,
                    factors,
                    rate: p,
                },
            );
        }
        let mut value = workspace::take_copy(self.value(x));
        for (r, &f) in factors.iter().enumerate() {
            for v in value.row_mut(r) {
                *v *= f;
            }
        }
        let rg = self.rg(x);
        self.push(
            value,
            Op::RowMask {
                x,
                factors,
                rate: p,
            },
            rg,
        )
    }

    /// SkipNode combine (Eq. 4): row `i` of the output is `skip`'s row when
    /// `take_skip[i]`, else `conv`'s row. Gradients route through whichever
    /// branch supplied the row — this is what lets gradients bypass deep
    /// stacks of weight multiplications.
    pub fn row_combine(&mut self, conv: NodeId, skip: NodeId, take_skip: &[bool]) -> NodeId {
        let (rows, cols) = self.shape(conv);
        assert_eq!((rows, cols), self.shape(skip), "row_combine shape mismatch");
        assert_eq!(take_skip.len(), rows, "row_combine mask length");
        if self.infer() {
            return self.push_pending(
                rows,
                cols,
                Op::RowCombine {
                    conv,
                    skip,
                    take_skip: take_skip.to_vec(),
                },
            );
        }
        let mut value = workspace::take_copy(self.value(conv));
        for (r, &take) in take_skip.iter().enumerate() {
            if take {
                value.row_mut(r).copy_from_slice(self.val(skip.0).row(r));
            }
        }
        let rg = self.rg(conv) || self.rg(skip);
        self.push(
            value,
            Op::RowCombine {
                conv,
                skip,
                take_skip: take_skip.to_vec(),
            },
            rg,
        )
    }

    /// Fused SkipNode layer (Eq. 4 applied to a whole GCN layer):
    /// `row_combine(relu(Ã·x·W + b), skip, take_skip)` as one masked
    /// kernel. Convenience wrapper over [`Tape::skip_conv_step`] for the
    /// plain bias-only step.
    pub fn skip_conv(
        &mut self,
        adj: AdjId,
        x: NodeId,
        skip: NodeId,
        w: NodeId,
        b: NodeId,
        take_skip: &[bool],
    ) -> NodeId {
        self.skip_conv_step(
            adj,
            FusedStep {
                x,
                skip,
                w,
                b: Some(b),
                init_residual: None,
                identity_map: None,
                residual: None,
            },
            take_skip,
        )
    }

    /// Generalized fused SkipNode layer: one masked kernel computing
    /// `row_combine(relu(support·W̃ [+ b]) [+ residual], skip, take_skip)`
    /// where `support` optionally mixes in a GCNII initial residual and
    /// `W̃` optionally applies the identity map (see [`FusedStep`]).
    ///
    /// Unlike the unfused `spmm → [lin_comb] → matmul → [lin_comb] →
    /// [add_bias] → relu → [add] → row_combine` chain, rows with
    /// `take_skip[i]` never enter the SpMM or the GEMM — the sparse
    /// gather, dense product, bias, and ReLU all run on the compacted
    /// active-row set only, so per-layer work scales with the non-skipped
    /// fraction. Skipped rows copy `skip`'s row; their backward is the
    /// identity route, exactly as in [`Tape::row_combine`]. The value is
    /// bit-identical to the unfused chain in the same operand order.
    ///
    /// Requires `skip` to already have the output width (`n × d_out`),
    /// which holds for SkipNode's middle hidden→hidden layers.
    pub fn skip_conv_step(&mut self, adj: AdjId, step: FusedStep, take_skip: &[bool]) -> NodeId {
        let FusedStep {
            x,
            skip,
            w,
            b,
            init_residual,
            identity_map,
            residual,
        } = step;
        let (n, d_in) = self.shape(x);
        let d_out = self.shape(w).1;
        assert_eq!(take_skip.len(), n, "skip_conv mask length");
        assert_eq!(
            self.shape(skip),
            (n, d_out),
            "skip_conv skip branch must match the conv output shape"
        );
        if let Some(b) = b {
            assert_eq!(self.shape(b).0, 1, "bias must be a row vector");
            assert_eq!(self.shape(b).1, d_out, "bias width mismatch");
        }
        if let Some((h0, _)) = init_residual {
            assert_eq!(
                self.shape(h0),
                (n, d_in),
                "skip_conv initial residual must match the propagation shape"
            );
        }
        if identity_map.is_some() {
            assert_eq!(
                d_in, d_out,
                "skip_conv identity map needs a square weight (d_in == d_out)"
            );
        }
        if let Some(res) = residual {
            assert_eq!(
                self.shape(res),
                (n, d_out),
                "skip_conv residual must match the conv output shape"
            );
        }
        assert_eq!(
            self.adjs[adj.0].mat.rows(),
            n,
            "skip_conv adjacency row count"
        );

        let mut active = Vec::with_capacity(n);
        let mut col_map = vec![COL_SKIP; n];
        for (r, &take) in take_skip.iter().enumerate() {
            if !take {
                col_map[r] = active.len() as u32;
                active.push(r as u32);
            }
        }

        if self.infer() {
            // The active/col_map structure only depends on the mask, so the
            // deferred executor can run the fused kernel later; `p_active`
            // and `relu_active` are backward-only caches and stay empty.
            return self.push_pending(
                n,
                d_out,
                Op::SkipConv {
                    adj: adj.0,
                    x,
                    skip,
                    w,
                    b,
                    init_residual,
                    identity_map,
                    residual,
                    cache: Box::new(SkipConvCache {
                        active,
                        col_map,
                        p_active: Matrix::zeros(0, 0),
                        relu_active: Matrix::zeros(0, 0),
                    }),
                },
            );
        }

        let (value, cache) = {
            let args = SkipConvArgs {
                mat: &self.adjs[adj.0].mat,
                xv: self.val(x.0),
                wv: self.val(w.0),
                bv: b.map(|b| self.val(b.0)),
                sv: self.val(skip.0),
                init: init_residual.map(|(h0, a)| (self.val(h0.0), a)),
                beta: identity_map,
                resv: residual.map(|r| self.val(r.0)),
            };
            let (value, p_active, relu_active) = skip_conv_compute(&args, &active, &col_map);
            (
                value,
                Box::new(SkipConvCache {
                    active,
                    col_map,
                    p_active,
                    relu_active,
                }),
            )
        };
        let rg = self.rg(x)
            || self.rg(skip)
            || self.rg(w)
            || b.is_some_and(|b| self.rg(b))
            || init_residual.is_some_and(|(h0, _)| self.rg(h0))
            || residual.is_some_and(|r| self.rg(r));
        self.push(
            value,
            Op::SkipConv {
                adj: adj.0,
                x,
                skip,
                w,
                b,
                init_residual,
                identity_map,
                residual,
                cache,
            },
            rg,
        )
    }

    /// Column-wise concatenation (JKNet's layer aggregation).
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat of zero parts");
        let rows = self.shape(parts[0]).0;
        let cols = parts.iter().map(|&p| self.shape(p).1).sum();
        if self.infer() {
            return self.push_pending(rows, cols, Op::ConcatCols(parts.to_vec()));
        }
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Matrix::hcat(&mats);
        let rg = parts.iter().any(|&p| self.rg(p));
        self.push(value, Op::ConcatCols(parts.to_vec()), rg)
    }

    /// Elementwise max across same-shaped inputs (JKNet max aggregation).
    pub fn max_pool(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "max_pool of zero parts");
        let shape = self.shape(parts[0]);
        for &p in parts {
            assert_eq!(self.shape(p), shape, "max_pool shape mismatch");
        }
        if self.infer() {
            // `argmax` is a backward-only record; the executor recomputes
            // the max directly.
            return self.push_pending(
                shape.0,
                shape.1,
                Op::MaxPool {
                    xs: parts.to_vec(),
                    argmax: Vec::new(),
                },
            );
        }
        let len = self.value(parts[0]).len();
        let mut value = workspace::take_copy(self.value(parts[0]));
        let mut argmax = vec![0u8; len];
        for (k, &p) in parts.iter().enumerate().skip(1) {
            let pv = self.value(p).as_slice().to_vec();
            for (i, &cand) in pv.iter().enumerate() {
                if cand > value.as_slice()[i] {
                    value.as_mut_slice()[i] = cand;
                    argmax[i] = k as u8;
                }
            }
        }
        let rg = parts.iter().any(|&p| self.rg(p));
        self.push(
            value,
            Op::MaxPool {
                xs: parts.to_vec(),
                argmax,
            },
            rg,
        )
    }

    /// Segmented graph readout: pool each segment's contiguous row range of
    /// `x` into one output row (`seg.num_segments() × d`). This is the
    /// graph-classification pooling layer over a packed multi-graph batch;
    /// a [`SegmentTable::single`] table reduces the whole matrix to one row.
    pub fn readout(&mut self, x: NodeId, kind: ReadoutKind, seg: &Arc<SegmentTable>) -> NodeId {
        let (n, d) = self.shape(x);
        assert_eq!(n, seg.total_rows(), "segment table must cover input rows");
        let g_rows = seg.num_segments();
        if self.infer() {
            // `argmax` is a backward-only record; the executor recomputes
            // the pooling (and refreshes the record on compiled replay).
            return self.push_pending(
                g_rows,
                d,
                Op::Readout {
                    x,
                    kind,
                    seg: Arc::clone(seg),
                    argmax: Vec::new(),
                },
            );
        }
        let mut value = workspace::take_scratch(g_rows, d);
        let mut argmax = Vec::new();
        segment_reduce_into(self.value(x), seg, kind, &mut value, &mut argmax);
        let rg = self.rg(x);
        self.push(
            value,
            Op::Readout {
                x,
                kind,
                seg: Arc::clone(seg),
                argmax,
            },
            rg,
        )
    }

    /// PairNorm center-and-scale with target scale `s`.
    pub fn pairnorm(&mut self, x: NodeId, s: f32) -> NodeId {
        if self.infer() {
            let (rows, cols) = self.shape(x);
            return self.push_pending(rows, cols, Op::PairNorm { x, s });
        }
        let value = pairnorm_forward(self.value(x), s);
        let rg = self.rg(x);
        self.push(value, Op::PairNorm { x, s }, rg)
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = self.shape(a);
        assert_eq!((rows, cols), self.shape(b), "hadamard shape mismatch");
        if self.infer() {
            return self.push_pending(rows, cols, Op::Hadamard(a, b));
        }
        let value = self.value(a).zip(self.value(b), |x, y| x * y);
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::Hadamard(a, b), rg)
    }

    /// Fixed-coefficient linear combination `Σ c_k * x_k`.
    pub fn lin_comb(&mut self, parts: &[(NodeId, f32)]) -> NodeId {
        assert!(!parts.is_empty(), "lin_comb of zero parts");
        let shape = self.shape(parts[0].0);
        for &(p, _) in parts {
            assert_eq!(self.shape(p), shape, "lin_comb shape mismatch");
        }
        if self.infer() {
            return self.push_pending(shape.0, shape.1, Op::LinComb(parts.to_vec()));
        }
        let mut value = workspace::take(shape.0, shape.1);
        for &(p, c) in parts {
            value.add_scaled(self.value(p), c);
        }
        let rg = parts.iter().any(|&(p, _)| self.rg(p));
        self.push(value, Op::LinComb(parts.to_vec()), rg)
    }

    /// Learnable-weight combination `Σ_k w[0,k] * x_k` (GPRGNN's
    /// generalized-PageRank coefficients).
    pub fn weighted_sum(&mut self, xs: &[NodeId], w: NodeId) -> NodeId {
        assert!(!xs.is_empty(), "weighted_sum of zero parts");
        assert_eq!(self.shape(w).0, 1, "weights must be a row vector");
        assert_eq!(self.shape(w).1, xs.len(), "one weight per input");
        let shape = self.shape(xs[0]);
        for &x in xs {
            assert_eq!(self.shape(x), shape, "weighted_sum shape mismatch");
        }
        if self.infer() {
            return self.push_pending(shape.0, shape.1, Op::WeightedSum { xs: xs.to_vec(), w });
        }
        let coef: Vec<f32> = (0..xs.len()).map(|k| self.value(w).get(0, k)).collect();
        let mut value = workspace::take(shape.0, shape.1);
        for (&x, &c) in xs.iter().zip(&coef) {
            value.add_scaled(self.value(x), c);
        }
        let rg = xs.iter().any(|&p| self.rg(p)) || self.rg(w);
        self.push(value, Op::WeightedSum { xs: xs.to_vec(), w }, rg)
    }

    /// Per-edge dot-product scores `h_u · h_v` as an `m×1` column (the
    /// link-prediction decoder).
    pub fn edge_score(&mut self, h: NodeId, edges: &[(usize, usize)]) -> NodeId {
        let rows = self.shape(h).0;
        for &(u, v) in edges {
            assert!(u < rows && v < rows, "edge endpoint out of range");
        }
        if self.infer() {
            return self.push_pending(
                edges.len(),
                1,
                Op::EdgeScore {
                    h,
                    edges: edges.to_vec(),
                },
            );
        }
        let hv = self.value(h);
        let mut value = workspace::take(edges.len(), 1);
        for (e, &(u, v)) in edges.iter().enumerate() {
            let dot: f32 = hv.row(u).iter().zip(hv.row(v)).map(|(&a, &b)| a * b).sum();
            value.set(e, 0, dot);
        }
        let rg = self.rg(h);
        self.push(
            value,
            Op::EdgeScore {
                h,
                edges: edges.to_vec(),
            },
            rg,
        )
    }
}
