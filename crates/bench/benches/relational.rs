//! Micro-benchmarks of the relational substrate: the hash-join extension
//! step (`ComputeJoin` — the hot loop of every sweep), delta merging, full
//! view evaluation, projection/finalize, and a source's maintained join
//! index vs. per-query rehashing — plain, σ-pushed and shard-scoped. Run
//! with `cargo bench -p dw-bench --bench relational`.

use dw_bench::Bench;
use dw_obs::Obs;
use dw_relational::{
    extend_partial, tup, Bag, CmpOp, JoinIndex, JoinSide, PartialDelta, Predicate, Schema,
    ShardMap, ShardScope, Tuple, Value, ViewDefBuilder,
};
use dw_rng::Rng64;

fn chain_view(n: usize) -> dw_relational::ViewDef {
    let mut b = ViewDefBuilder::new();
    for i in 0..n {
        b = b.relation(Schema::new(format!("R{}", i + 1), ["K", "A", "B"]).unwrap());
    }
    for i in 0..n - 1 {
        b = b.join(format!("R{}.B", i + 1), format!("R{}.A", i + 2));
    }
    b.build().unwrap()
}

fn random_bag(rng: &mut Rng64, rows: usize, domain: i64) -> Bag {
    Bag::from_tuples(
        (0..rows).map(|k| tup![k as i64, rng.i64_in(0, domain), rng.i64_in(0, domain)]),
    )
}

fn bench_extend(b: &Bench) {
    for rows in [100usize, 1_000, 10_000] {
        let mut rng = Rng64::new(1);
        let view = chain_view(2);
        let neighbor = random_bag(&mut rng, rows, (rows / 4).max(1) as i64);
        let delta = random_bag(&mut rng, 64, (rows / 4).max(1) as i64);
        let pd = PartialDelta::seed(&view, 0, &delta).unwrap();
        b.run(&format!("extend_partial/{rows}"), || {
            extend_partial(&view, &pd, &neighbor, JoinSide::Right).unwrap()
        });
    }
}

fn bench_bag_merge(b: &Bench) {
    for rows in [1_000usize, 10_000] {
        let mut rng = Rng64::new(2);
        let a = random_bag(&mut rng, rows, 1_000);
        let b2 = random_bag(&mut rng, rows, 1_000);
        b.run(&format!("bag_merge/{rows}"), || a.plus(&b2));
    }
}

fn bench_eval_view(b: &Bench) {
    for n in [2usize, 4, 8] {
        let mut rng = Rng64::new(3);
        let view = chain_view(n);
        let rels: Vec<Bag> = (0..n).map(|_| random_bag(&mut rng, 500, 500)).collect();
        b.run(&format!("eval_view/{n}"), || {
            let refs: Vec<&Bag> = rels.iter().collect();
            dw_relational::eval_view(&view, &refs).unwrap()
        });
    }
}

fn bench_finalize(b: &Bench) {
    let view = ViewDefBuilder::new()
        .relation(Schema::new("R1", ["K", "A", "B"]).unwrap())
        .project(["R1.B"])
        .build()
        .unwrap();
    let mut rng = Rng64::new(4);
    let pd = PartialDelta::seed(&view, 0, &random_bag(&mut rng, 10_000, 100)).unwrap();
    b.run("finalize_project_10k", || pd.finalize(&view).unwrap());
}

/// A query's filter on the source's join matches.
type Keep<'a> = &'a dyn Fn(&Tuple) -> bool;

fn bench_indexed_vs_plain(b: &Bench) {
    for rows in [1_000usize, 10_000] {
        let mut rng = Rng64::new(5);
        let view = chain_view(2);
        let relation = random_bag(&mut rng, rows, (rows / 4).max(1) as i64);
        // R2's maintained index, as a data source keeps it.
        let index = JoinIndex::new(&view, 1, &relation);
        let delta = random_bag(&mut rng, 8, (rows / 4).max(1) as i64);
        let pd = PartialDelta::seed(&view, 0, &delta).unwrap();
        b.run(&format!("source_query/rehash_per_query/{rows}"), || {
            extend_partial(&view, &pd, &relation, JoinSide::Right).unwrap()
        });
        b.run(&format!("source_query/maintained_index/{rows}"), || {
            index
                .extend(&view, &pd, JoinSide::Right, |_| true, &Obs::off())
                .unwrap()
        });
        // Filtered queries: the rehash arm copies the qualifying tuples
        // and joins the copy; the index arm drops failing matches.
        let pred = Predicate::Cmp {
            attr: 2,
            op: CmpOp::Ge,
            value: Value::Int((rows / 8) as i64),
        };
        let scope = ShardScope {
            map: ShardMap::hash(4),
            mask: 0b0011,
        };
        let filters: [(&str, Keep); 2] = [
            ("pushed", &|t| pred.eval(t)),
            ("scoped", &|t| scope.admits(t)),
        ];
        for (name, keep) in filters {
            b.run(&format!("source_query/{name}_rehash/{rows}"), || {
                let filtered = relation.filter(keep);
                extend_partial(&view, &pd, &filtered, JoinSide::Right).unwrap()
            });
            b.run(&format!("source_query/{name}_index/{rows}"), || {
                index
                    .extend(&view, &pd, JoinSide::Right, keep, &Obs::off())
                    .unwrap()
            });
        }
    }
}

fn main() {
    let b = Bench::default();
    bench_extend(&b);
    bench_bag_merge(&b);
    bench_eval_view(&b);
    bench_finalize(&b);
    bench_indexed_vs_plain(&b);
}
