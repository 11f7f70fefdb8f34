//! A scripted interactive session reproducing the paper's Figures 4-10:
//! the empty window (Fig 5), selecting and positioning icons via palette
//! drags (Figs 6-7), rubber-banding a connection with the checker-filtered
//! menu (Fig 8), the DMA pop-up sub-window (Fig 9), and programming a
//! functional unit from the capability-filtered menu (Fig 10).
//!
//! Every snapshot is written to `out/figures/` as .txt and .svg.
//!
//! Run with: `cargo run --example editor_session`

use nsc::editor::{Event, Session, DRAW_X0, WIN_W};
use std::path::Path;

fn main() {
    let mut s = Session::new(nsc::env::Session::nsc_1988().editor("figure session"));
    let panel_x = WIN_W - 8;
    let row = |i: i32| 2 + 1 + 2 * i; // control-panel rows

    // Figure 5: the basic display window.
    s.snap("fig5 the basic display window");

    // Figure 6: selecting an icon and dragging its outline.
    s.feed([
        Event::MouseDown { x: panel_x, y: row(3) }, // TRIPLET
        Event::MouseMove { x: DRAW_X0 + 26, y: 6 },
    ])
    .snap("fig6 selecting and positioning an icon (drag in progress)")
    .feed([Event::MouseUp { x: DRAW_X0 + 26, y: 6 }]);

    // Figure 7: display after all ALSs (and storage) are positioned.
    s.feed([
        Event::MouseDown { x: panel_x, y: row(4) }, // MEMORY
        Event::MouseUp { x: DRAW_X0 + 3, y: 6 },
        Event::MouseDown { x: panel_x, y: row(4) }, // MEMORY (output)
        Event::MouseUp { x: DRAW_X0 + 52, y: 6 },
        Event::MouseDown { x: panel_x, y: row(5) }, // CACHE
        Event::MouseUp { x: DRAW_X0 + 52, y: 20 },
    ])
    .snap("fig7 display after all icons have been positioned");

    // Figure 8: establishing a connection (rubber band from the memory
    // icon's I/O pad to the triplet's first input).
    s.feed([
        Event::MouseDown { x: DRAW_X0 + 3, y: 7 }, // memory Io pad
        Event::MouseMove { x: DRAW_X0 + 16, y: 6 },
    ])
    .snap("fig8a rubber-band line during connection")
    .feed([Event::MouseUp { x: DRAW_X0 + 26, y: 6 }]); // triplet u0.inA pad

    // Figure 9: the DMA pop-up sub-window appears for storage wires.
    s.snap("fig9 popup subwindow for specifying the memory connection").feed([
        Event::Text("0".into()), // plane number
        Event::NextField,
        Event::NextField,
        Event::Text("10000".into()), // offset, as in the paper's figure
        Event::NextField,
        Event::Text("1".into()), // stride
        Event::SubmitForm,
    ]);

    // Figure 10: programming a functional unit from the pop-up menu.
    s.feed([Event::MouseDown { x: DRAW_X0 + 29, y: 6 }]) // unit 0 box
        .snap("fig10 operation menu for a functional unit")
        .feed([Event::MenuPick(0)]); // ADD

    s.snap("final state after the scripted walkthrough");

    let dir = Path::new("out/figures");
    let stems = s.save_all(dir).expect("snapshots written");
    println!("wrote {} snapshots to {}:", stems.len(), dir.display());
    for stem in &stems {
        println!("  {stem}.txt / {stem}.svg");
    }
    println!("\nlast frame:\n{}", s.snapshots.last().unwrap().ascii);
    println!(
        "interaction effort: {} mouse actions, {} menu picks, {} typed characters",
        s.editor.effort.mouse_actions, s.editor.effort.menu_picks, s.editor.effort.text_chars
    );
    // The session must have produced real semantic content.
    let d = s.editor.doc.pipeline(s.editor.current).unwrap();
    assert!(d.icon_count() >= 4, "icons placed");
    assert!(d.connection_count() >= 1, "wire established");
    assert!(d.fu_assigns().count() >= 1, "unit programmed");
}
