//! Per-array subchunk schemas (the paper's §2 future work, "explicitly
//! request sub-chunked schemas in memory and on disk").

mod common;

use common::*;
use panda_core::{build_server_plan, WriteSet};
use panda_schema::ElementType;

#[test]
fn override_changes_the_plan_but_not_the_files() {
    let base = make_array(
        "a",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(2),
    );
    let fine = base.clone().with_subchunk_bytes(64);
    assert_eq!(base.subchunk_override(), None);
    assert_eq!(fine.subchunk_override(), Some(64));
    assert_eq!(fine.effective_subchunk(1 << 20), 64);
    assert_eq!(base.effective_subchunk(1 << 20), 1 << 20);

    // Finer subchunks → more subchunks in the plan.
    let coarse_plan = build_server_plan(&base, 0, 2, 1 << 20);
    let fine_plan = build_server_plan(&fine, 0, 2, 1 << 20);
    assert!(fine_plan.subchunks().count() > coarse_plan.subchunks().count());
    // Piece counts follow suit.
    assert!(fine_plan.num_pieces() > coarse_plan.num_pieces());

    // But the files written are identical: the override is a transport
    // knob, not a layout change.
    let (sys_a, mut a_clients, a_mems) = launch_mem(4, 2, 1 << 20);
    collective_write(&mut a_clients, &base, "x");
    let (sys_b, mut b_clients, b_mems) = launch_mem(4, 2, 1 << 20);
    collective_write(&mut b_clients, &fine, "x");
    for i in 0..2 {
        assert_eq!(
            a_mems[i].contents(&format!("x.s{i}")).unwrap(),
            b_mems[i].contents(&format!("x.s{i}")).unwrap()
        );
    }
    // And the fine-grained array still reads back correctly.
    let bufs = collective_read(&mut b_clients, &fine, "x");
    assert_pattern(&fine, &bufs);
    sys_a.shutdown(a_clients).unwrap();
    sys_b.shutdown(b_clients).unwrap();
}

#[test]
fn mixed_overrides_in_one_group() {
    // Two arrays in one collective, one with a fine override: each
    // array uses its own cap.
    let coarse = make_array("c", &[8, 8], ElementType::F64, &[2, 2], DiskSchema::Natural);
    let fine = make_array("f", &[8, 8], ElementType::F64, &[2, 2], DiskSchema::Natural)
        .with_subchunk_bytes(32);
    let (system, mut clients, _mems) = launch_mem(4, 2, 1 << 20);
    let c_datas: Vec<Vec<u8>> = (0..4).map(|r| pattern_chunk(&coarse, r)).collect();
    let f_datas: Vec<Vec<u8>> = (0..4).map(|r| pattern_chunk(&fine, r)).collect();
    std::thread::scope(|s| {
        for (client, (dc, df)) in clients.iter_mut().zip(c_datas.iter().zip(&f_datas)) {
            let (coarse, fine) = (&coarse, &fine);
            s.spawn(move || {
                client
                    .write_set(&WriteSet::new().array(coarse, "c", dc.as_slice()).array(
                        fine,
                        "f",
                        df.as_slice(),
                    ))
                    .unwrap();
            });
        }
    });
    let c_bufs = collective_read(&mut clients, &coarse, "c");
    assert_pattern(&coarse, &c_bufs);
    let f_bufs = collective_read(&mut clients, &fine, "f");
    assert_pattern(&fine, &f_bufs);
    system.shutdown(clients).unwrap();
}
