//! A check shared by the JSON round-trip properties.

use serde::{Deserialize, Value};

/// Adds a key that no type names to each object of `tree` in turn, at a
/// position drawn from `seed`, and asserts that reading the rendered text
/// as `T` fails with an error naming the key.
pub fn assert_stray_keys_refused<T: Deserialize>(tree: &Value, seed: u64) {
    let key = format!("stray_{}", seed % 1000);
    let mut objects = 0;
    loop {
        let (mut stray, mut at) = (tree.clone(), objects);
        if !insert(&mut stray, &mut at, &key, seed) {
            break;
        }
        let text = serde_json::to_string(&stray).unwrap();
        match serde_json::from_str::<T>(&text) {
            Ok(_) => panic!("accepted the stray key {key:?}: {text}"),
            Err(e) => assert!(
                e.to_string().contains(&format!("no field '{key}'")),
                "{e} does not name {key:?}: {text}"
            ),
        }
        objects += 1;
    }
    assert!(objects > 0, "no object to insert into");
}

/// Inserts `key` into the `at`-th object of `value`, in preorder; false
/// when `value` has fewer objects.
fn insert(value: &mut Value, at: &mut usize, key: &str, seed: u64) -> bool {
    match value {
        Value::Object(entries) if *at == 0 => {
            let slot = (seed % (entries.len() as u64 + 1)) as usize;
            entries.insert(slot, (key.to_string(), Value::UInt(seed)));
            true
        }
        Value::Object(entries) => {
            *at -= 1;
            entries.iter_mut().any(|(_, v)| insert(v, at, key, seed))
        }
        Value::Array(items) => items.iter_mut().any(|v| insert(v, at, key, seed)),
        _ => false,
    }
}
