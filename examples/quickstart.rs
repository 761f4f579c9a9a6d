//! Quickstart: transparent schema evolution in a dozen lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use tse::core::{SharedSystem, TseClient, TseReader, TseWriter};
use tse::object_model::{PropertyDef, Value, ValueType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A shared base schema.
    let sys = SharedSystem::new();
    sys.define_base_class(
        "Person",
        &[],
        vec![PropertyDef::stored("name", ValueType::Str, Value::Null)],
    )?;
    sys.define_base_class("Student", &["Person"], vec![])?;

    // 2. Each developer works against a personal view.
    let alice = sys.client("alice");
    let bob = sys.client("bob");
    alice.create_view(&["Person", "Student"])?;
    bob.create_view(&["Person", "Student"])?;
    let bob_schema = bob.describe()?;

    // 3. Alice's application stores data through her view.
    let ann = alice.writer()?.create("Student", &[("name", "ann".into())])?;

    // 4. Alice needs a new stored attribute. She changes *her view*; nobody
    //    consults a DBA, and Bob's programs never notice.
    let report = alice.evolve("add_attribute register: bool = false to Student")?;
    println!("generated view specification:\n{}", report.script);

    // 5. Transparent: the class is still called Student, old data is there,
    //    and the new attribute is real, stored state.
    alice.writer()?.set(ann, "Student", &[("register", Value::Bool(true))])?;
    let alice_v2 = alice.session()?;
    println!(
        "alice v{}: name={:?} register={:?}",
        alice_v2.view_version(),
        alice_v2.get(ann, "Student", "name")?,
        alice_v2.get(ann, "Student", "register")?,
    );

    // 6. Bob still sees the same object — without the attribute he never
    //    asked for — and his view schema is untouched.
    let bob_v1 = bob.session()?;
    println!("bob   v{}: name={:?}", bob_v1.view_version(), bob_v1.get(ann, "Student", "name")?);
    assert!(bob_v1.get(ann, "Student", "register").is_err());
    assert_eq!(bob.describe()?, bob_schema);
    println!("bob's view unaffected; objects shared. done.");
    Ok(())
}
