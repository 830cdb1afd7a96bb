//! Parameter scan for the A1 ablation (dev utility).
use continuum_core::prelude::*;
use continuum_model::Fleet;
use continuum_net::Topology;
use continuum_placement::Env;

fn lean(cores_devices: &[DeviceClass]) -> Env {
    let mut topo = Topology::new();
    let e = topo.add_node("edge", Tier::Edge);
    let f = topo.add_node("fog", Tier::Fog);
    topo.add_link(e, f, SimDuration::from_millis(5), 1.25e8);
    let mut fleet = Fleet::new();
    for &c in cores_devices {
        fleet.add_class(f, c);
    }
    fleet.add_class(e, DeviceClass::EdgeGateway);
    Env::new(topo, fleet)
}

fn staggered(_env: &Env, n: usize, seed: u64) -> Dag {
    let edge_node = continuum_net::NodeId(0);
    let mut rng = Rng::new(seed);
    let mut g = Dag::new("staggered-fanout");
    let mut outs = Vec::new();
    for i in 0..n {
        let bytes = (rng.range_u64(1, 80)) * (4 << 20);
        let inp = g.add_input(format!("in{i}"), bytes, edge_node);
        let out = g.add_item(format!("o{i}"), 1024);
        g.add_task_full(
            format!("b{i}"),
            rng.lognormal((1e10f64).ln(), 0.3),
            1,
            vec![inp],
            vec![out],
            Constraints {
                min_mem_bytes: 16 << 30,
                ..Default::default()
            },
        );
        outs.push(out);
    }
    let fin = g.add_item("final", 1024);
    g.add_task_full(
        "join",
        1e9,
        1,
        outs,
        vec![fin],
        Constraints {
            min_mem_bytes: 16 << 30,
            ..Default::default()
        },
    );
    g
}

fn main() {
    let env = lean(&[DeviceClass::FogServer]);
    for n in [40usize, 80, 160] {
        let (mut wins, mut ties, mut losses, mut ratio) = (0, 0, 0, 0.0);
        for rep in 0..8u64 {
            let dag = staggered(&env, n, 500 + rep);
            let s_ins = HeftPlacer { insertion: true }.schedule(&env, &dag);
            let s_app = HeftPlacer { insertion: false }.schedule(&env, &dag);
            let diff = s_ins
                .start
                .iter()
                .zip(&s_app.start)
                .filter(|(a, b)| a != b)
                .count();
            let ins = s_ins.makespan().as_secs_f64();
            let app = s_app.makespan().as_secs_f64();
            if rep == 0 {
                println!("  n={n} rep0: {diff} differing starts, ins={ins:.4} app={app:.4}");
            }
            ratio += ins / app;
            if ins < app * 0.999 {
                wins += 1
            } else if ins > app * 1.001 {
                losses += 1
            } else {
                ties += 1
            }
        }
        println!(
            "n={n}: wins={wins} ties={ties} losses={losses} mean_ratio={:.4}",
            ratio / 8.0
        );
    }
}
