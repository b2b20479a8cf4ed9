//! Property tests for the embedded relational engine.

use excovery_store::{Column, ColumnType, Database, Row, SqlValue, Table};
use proptest::prelude::*;

fn value_strategy(t: ColumnType) -> BoxedStrategy<SqlValue> {
    let typed = match t {
        ColumnType::Integer => any::<i64>().prop_map(SqlValue::Int).boxed(),
        ColumnType::Real => (-1e9f64..1e9).prop_map(SqlValue::Real).boxed(),
        ColumnType::Text => "[ -~]{0,16}".prop_map(SqlValue::Text).boxed(),
        ColumnType::Blob => prop::collection::vec(any::<u8>(), 0..16)
            .prop_map(SqlValue::Blob)
            .boxed(),
    };
    prop_oneof![9 => typed, 1 => Just(SqlValue::Null)].boxed()
}

fn schema_strategy() -> impl Strategy<Value = Vec<Column>> {
    prop::collection::vec(
        prop_oneof![
            Just(ColumnType::Integer),
            Just(ColumnType::Real),
            Just(ColumnType::Text),
            Just(ColumnType::Blob),
        ],
        1..5,
    )
    .prop_map(|types| {
        types
            .into_iter()
            .enumerate()
            .map(|(i, t)| Column::new(format!("c{i}"), t))
            .collect()
    })
}

/// A schema and rows that type-check against it.
fn typed_rows_strategy() -> impl Strategy<Value = (Vec<Column>, Vec<Row>)> {
    schema_strategy().prop_flat_map(|cols| {
        let row_strategies: Vec<BoxedStrategy<SqlValue>> =
            cols.iter().map(|c| value_strategy(c.ctype)).collect();
        prop::collection::vec(row_strategies, 0..24).prop_map(move |rows| (cols.clone(), rows))
    })
}

fn table_of(columns: Vec<Column>, rows: Vec<Row>) -> Table {
    let mut t = Table::new(columns);
    for row in rows {
        t.insert(row).expect("typed row");
    }
    t
}

fn table_strategy() -> impl Strategy<Value = Table> {
    typed_rows_strategy().prop_map(|(cols, rows)| table_of(cols, rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Typed inserts always succeed and preserve insertion order.
    #[test]
    fn inserts_preserve_order(typed in typed_rows_strategy()) {
        let (cols, rows) = typed;
        let t = table_of(cols, rows.clone());
        prop_assert_eq!(t.len(), rows.len());
        prop_assert_eq!(t.rows().map(Row::from).collect::<Vec<_>>(), rows);
    }

    /// A database survives save/load byte-identically.
    #[test]
    fn database_persistence_roundtrip(t in table_strategy(), tag in 0u32..1_000_000) {
        let mut db = Database::new();
        db.create_table("t", t.columns().to_vec()).unwrap();
        for row in t.rows() {
            db.insert("t", Row::from(row)).unwrap();
        }
        let path = std::env::temp_dir()
            .join(format!("excovery-prop-{}-{tag}.expdb", std::process::id()));
        db.save(&path).unwrap();
        let loaded = Database::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded, db);
    }
}
