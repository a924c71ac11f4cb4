//! One module per table/figure of the paper's evaluation (§VII).

pub mod ablation;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod table3;

/// Every experiment, in `repro all` order.
pub const ALL: [&str; 9] =
    ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2", "table3", "ablation"];

/// Runs experiment `name` and renders its report, or `None` for an
/// unknown name.
#[must_use]
pub fn render(name: &str) -> Option<String> {
    Some(match name {
        "ablation" => ablation::run().to_string(),
        "fig4" => fig4::run().to_string(),
        "fig5" => fig5::run().to_string(),
        "fig6" => fig6::run().to_string(),
        "fig7" => fig7::run().to_string(),
        "fig8" => fig8::run().to_string(),
        "fig9" => fig9::run().to_string(),
        "table2" => table2::run().to_string(),
        "table3" => table3::run().to_string(),
        _ => return None,
    })
}
