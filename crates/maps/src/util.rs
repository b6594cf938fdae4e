//! Helpers shared by the map builders: round-robin shelf stocking.
//! Crate-private — the public surface is the generator functions
//! themselves.

use wsp_model::{Coord, Direction, ModelError, ProductId, Warehouse};

/// Assigns product `k = i mod products` to the `i`-th shelf cell and
/// stocks `units_per_slot` at its canonical access vertex (the southern
/// aisle if traversable, else the northern one).
pub(crate) fn stock_round_robin(
    warehouse: &mut Warehouse,
    shelf_cells: &[Coord],
    products: u32,
    units_per_slot: u64,
) -> Result<(), ModelError> {
    for (i, &cell) in shelf_cells.iter().enumerate() {
        let product = ProductId((i as u32) % products);
        let access = cell
            .step(Direction::South)
            .and_then(|c| warehouse.graph().vertex_at(c))
            .or_else(|| {
                cell.step(Direction::North)
                    .and_then(|c| warehouse.graph().vertex_at(c))
            })
            .expect("every shelf has an adjacent aisle by construction");
        warehouse.stock(access, product, units_per_slot)?;
    }
    Ok(())
}
