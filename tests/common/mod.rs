//! A check shared by the JSON round-trip properties.

use serde::{Deserialize, Value};

/// For each object of `tree` in turn, adds a key that no type names, then
/// repeats one of the object's own keys, each at a position drawn from
/// `seed`, and asserts that reading the rendered text as `T` fails with an
/// error naming the key.
pub fn assert_stray_keys_refused<T: Deserialize>(tree: &Value, seed: u64) {
    let key = format!("stray_{}", seed % 1000);
    let mut objects = 0;
    loop {
        let mut stray = tree.clone();
        let found = edit(&mut stray, &mut objects.clone(), &mut |entries| {
            let slot = (seed % (entries.len() as u64 + 1)) as usize;
            entries.insert(slot, (key.clone(), Value::UInt(seed)));
        });
        if !found {
            break;
        }
        assert_refused::<T>(&stray, &format!("no field '{key}'"));

        let (mut twice, mut repeated) = (tree.clone(), None);
        edit(&mut twice, &mut objects.clone(), &mut |entries| {
            if let Some(entry) = entries.get(seed as usize % entries.len().max(1)).cloned() {
                repeated = Some(entry.0.clone());
                let slot = (seed % (entries.len() as u64 + 1)) as usize;
                entries.insert(slot, entry);
            }
        });
        if let Some(repeated) = repeated {
            assert_refused::<T>(&twice, &format!("field '{repeated}' twice"));
        }
        objects += 1;
    }
    assert!(objects > 0, "no object to insert into");
}

/// Asserts that reading the rendered `tree` as `T` fails with an error
/// containing `names`.
fn assert_refused<T: Deserialize>(tree: &Value, names: &str) {
    let text = serde_json::to_string(tree).unwrap();
    match serde_json::from_str::<T>(&text) {
        Ok(_) => panic!("accepted a tree whose error would say {names:?}: {text}"),
        Err(e) => assert!(
            e.to_string().contains(names),
            "{e} does not say {names:?}: {text}"
        ),
    }
}

/// An object's members, in order.
type Entries = Vec<(String, Value)>;

/// Applies `f` to the entries of the `at`-th object of `value`, in
/// preorder; false when `value` has fewer objects.
fn edit(value: &mut Value, at: &mut usize, f: &mut dyn FnMut(&mut Entries)) -> bool {
    match value {
        Value::Object(entries) if *at == 0 => {
            f(entries);
            true
        }
        Value::Object(entries) => {
            *at -= 1;
            entries.iter_mut().any(|(_, v)| edit(v, at, f))
        }
        Value::Array(items) => items.iter_mut().any(|v| edit(v, at, f)),
        _ => false,
    }
}
