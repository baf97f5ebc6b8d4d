//! Out-of-core blocked LU factorization through Panda collectives.
//!
//! The paper's related work highlights out-of-core computation as the
//! showcase for directed I/O ([Kotz95b] implements out-of-core LU on
//! disk-directed I/O). This example does the same on server-directed
//! I/O: an N×N matrix lives on the I/O nodes as column panels, and the
//! compute nodes keep a working set of at most **two panels** in memory
//! while performing a right-looking blocked LU factorization (no
//! pivoting; the matrix is made diagonally dominant).
//!
//! Every panel movement is a Panda collective (`read`/`write` of a
//! `BLOCK,*`-distributed array); the factorization's broadcasts are
//! point-to-point sends on a second fabric. The result is verified
//! against a sequential LU of the same matrix.
//!
//! Run with: `cargo run --release --example out_of_core_lu`

use std::sync::Arc;

use panda_core::{ArrayMeta, PandaConfig, PandaSystem, ReadSet, WriteSet};
use panda_fs::{FileSystem, MemFs};
use panda_msg::{InProcEndpoint, InProcFabric, MatchSpec, NodeId, Transport};
use panda_schema::{DataSchema, ElementType, Mesh, Shape};

const N: usize = 128; // matrix dimension
const CLIENTS: usize = 4; // compute nodes (row blocks)
const SERVERS: usize = 2; // i/o nodes
const W: usize = N / CLIENTS; // panel width == rows per client
const PANELS: usize = N / W;

/// Deterministic test matrix: uniform-ish off-diagonal entries with a
/// dominant diagonal so unpivoted LU is stable.
fn a0(i: usize, j: usize) -> f64 {
    let h = (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503)) % 1000;
    let base = h as f64 / 1000.0;
    if i == j {
        base + N as f64
    } else {
        base
    }
}

/// The panel array descriptor: N×W f64, rows `BLOCK` over the clients.
fn panel_meta() -> ArrayMeta {
    let shape = Shape::new(&[N, W]).unwrap();
    let memory = DataSchema::new(
        shape,
        ElementType::F64,
        &[panda_schema::Dist::Block, panda_schema::Dist::Star],
        Mesh::line(CLIENTS).unwrap(),
    )
    .unwrap();
    ArrayMeta::natural("panel", memory).unwrap()
}

/// My rows of panel `j` of the initial matrix, packed row-major.
fn initial_panel(rank: usize, j: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(W * W * 8);
    for i in rank * W..(rank + 1) * W {
        for c in 0..W {
            out.extend_from_slice(&a0(i, j * W + c).to_le_bytes());
        }
    }
    out
}

fn to_f64(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
        .collect()
}

fn to_bytes(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Client `root`'s block to every client over the second fabric: the
/// root passes `Some` and sends it to each other client, the others pass
/// `None` and receive it.
fn broadcast(ep: &mut InProcEndpoint, root: usize, tag: u32, vals: Option<Vec<f64>>) -> Vec<f64> {
    match vals {
        Some(vals) => {
            for c in (0..CLIENTS).filter(|&c| c != root) {
                ep.send(NodeId(c), tag, to_bytes(&vals)).unwrap();
            }
            vals
        }
        None => {
            let env = ep
                .recv_matching(MatchSpec::from(NodeId(root), tag))
                .unwrap();
            to_f64(&env.payload.into_contiguous())
        }
    }
}

/// Sequential reference LU (no pivoting) of the full matrix.
fn reference_lu() -> Vec<f64> {
    let mut a: Vec<f64> = (0..N * N).map(|x| a0(x / N, x % N)).collect();
    for k in 0..N {
        for i in k + 1..N {
            a[i * N + k] /= a[k * N + k];
            let lik = a[i * N + k];
            for j in k + 1..N {
                a[i * N + j] -= lik * a[k * N + j];
            }
        }
    }
    a
}

/// Factor the W×W diagonal block in place (packed L\U, unit lower L).
fn factor_block(b: &mut [f64]) {
    for k in 0..W {
        for i in k + 1..W {
            b[i * W + k] /= b[k * W + k];
            let lik = b[i * W + k];
            for j in k + 1..W {
                b[i * W + j] -= lik * b[k * W + j];
            }
        }
    }
}

fn main() {
    let meta = panel_meta();
    let (system, mut clients) = PandaSystem::builder()
        .config(
            PandaConfig::new(CLIENTS, SERVERS)
                .with_subchunk_bytes(8 << 10)
                .clone(),
        )
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let (bcast_eps, _) = InProcFabric::new(CLIENTS);

    println!(
        "out-of-core LU: {N}x{N} f64 in {PANELS} column panels of width {W}; \
         {CLIENTS} compute nodes hold ≤ 2 panels each; {SERVERS} i/o nodes"
    );

    std::thread::scope(|s| {
        for (client, mut bcast) in clients.iter_mut().zip(bcast_eps) {
            let meta = &meta;
            s.spawn(move || {
                let rank = client.rank();
                // Stage the initial matrix onto the I/O nodes, panel by
                // panel (the "data bigger than memory" starting state).
                for j in 0..PANELS {
                    let p = initial_panel(rank, j);
                    client
                        .write_set(&WriteSet::new().array(
                            meta,
                            format!("lu/panel{j}"),
                            p.as_slice(),
                        ))
                        .unwrap();
                }

                // Right-looking blocked factorization. Working set: the
                // factor panel `pk` plus one update panel.
                for k in 0..PANELS {
                    let mut buf = vec![0u8; meta.client_bytes(rank)];
                    client
                        .read_set(&mut ReadSet::new().array(
                            meta,
                            format!("lu/panel{k}"),
                            buf.as_mut_slice(),
                        ))
                        .unwrap();
                    let mut pk = to_f64(&buf);

                    // Factor the diagonal block (owned by client k,
                    // since panel width == rows per client) and share it.
                    let diag = if rank == k {
                        factor_block(&mut pk);
                        broadcast(&mut bcast, k, 1, Some(pk.clone()))
                    } else {
                        broadcast(&mut bcast, k, 1, None)
                    };

                    // My rows strictly below the diagonal block:
                    // L(i,:) = A(i,:) · U⁻¹ (backward substitution per row).
                    if rank > k {
                        for row in pk.chunks_exact_mut(W) {
                            for c in 0..W {
                                let mut v = row[c];
                                for t in 0..c {
                                    v -= row[t] * diag[t * W + c];
                                }
                                row[c] = v / diag[c * W + c];
                            }
                        }
                    }
                    client
                        .write_set(&WriteSet::new().array(
                            meta,
                            format!("lu/panel{k}"),
                            to_bytes(&pk).as_slice(),
                        ))
                        .unwrap();

                    // Trailing update, one panel at a time.
                    for j in k + 1..PANELS {
                        let mut jbuf = vec![0u8; meta.client_bytes(rank)];
                        client
                            .read_set(&mut ReadSet::new().array(
                                meta,
                                format!("lu/panel{j}"),
                                jbuf.as_mut_slice(),
                            ))
                            .unwrap();
                        let mut pj = to_f64(&jbuf);

                        // U block of panel j: L_kk⁻¹ · A(k-block, j),
                        // computed by client k and broadcast.
                        let ukj = if rank == k {
                            // Forward substitution with unit lower L.
                            for c in 0..W {
                                for r in 1..W {
                                    let mut v = pj[r * W + c];
                                    for t in 0..r {
                                        v -= diag[r * W + t] * pj[t * W + c];
                                    }
                                    pj[r * W + c] = v;
                                }
                            }
                            broadcast(&mut bcast, k, 2, Some(pj.clone()))
                        } else {
                            broadcast(&mut bcast, k, 2, None)
                        };
                        if rank == k {
                            pj = ukj.clone();
                        }

                        // My rows below: A(i, j) -= L(i, k-panel) · U_kj.
                        if rank > k {
                            for (r, row) in pj.chunks_exact_mut(W).enumerate() {
                                let l_row = &pk[r * W..(r + 1) * W];
                                for c in 0..W {
                                    let mut acc = 0.0;
                                    for t in 0..W {
                                        acc += l_row[t] * ukj[t * W + c];
                                    }
                                    row[c] -= acc;
                                }
                            }
                        }
                        client
                            .write_set(&WriteSet::new().array(
                                meta,
                                format!("lu/panel{j}"),
                                to_bytes(&pj).as_slice(),
                            ))
                            .unwrap();
                    }
                }

                // Verify my rows of every panel against the sequential
                // reference factorization.
                let reference = reference_lu();
                let mut max_err = 0.0f64;
                for j in 0..PANELS {
                    let mut buf = vec![0u8; meta.client_bytes(rank)];
                    client
                        .read_set(&mut ReadSet::new().array(
                            meta,
                            format!("lu/panel{j}"),
                            buf.as_mut_slice(),
                        ))
                        .unwrap();
                    let p = to_f64(&buf);
                    for r in 0..W {
                        let gi = rank * W + r;
                        for c in 0..W {
                            let gj = j * W + c;
                            let err = (p[r * W + c] - reference[gi * N + gj]).abs();
                            max_err = max_err.max(err);
                        }
                    }
                }
                assert!(
                    max_err < 1e-9,
                    "client {rank}: max |LU - reference| = {max_err}"
                );
                if rank == 0 {
                    println!(
                        "factorization verified against the sequential reference \
                         (max error {max_err:.2e})"
                    );
                }
            });
        }
    });

    println!(
        "panel traffic: {} collectives moved {:.1} MB through the i/o nodes",
        // k loop: 1 read + 1 write per factor panel + (read+write) per
        // trailing panel; plus initial stage-in and final verify reads.
        PANELS + PANELS * 2 + PANELS * (PANELS - 1) + PANELS,
        system.fabric_stats.bytes_sent() as f64 / (1 << 20) as f64
    );
    system.shutdown(clients).unwrap();
    println!("done.");
}
