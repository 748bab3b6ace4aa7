//! Table 1: the home gateway models included in the study.

use hgw_stats::TextTable;

fn main() {
    println!("Table 1: Home gateway models included in the study\n");
    let mut table = TextTable::new(&["Vendor", "Model", "Firmware", "Tag"]);
    for d in hgw_devices::all_devices() {
        table.row(vec![
            d.provenance.vendor.to_string(),
            d.provenance.model.to_string(),
            d.provenance.firmware.to_string(),
            d.tag.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("{} devices.", hgw_devices::all_devices().len());
    let path = hgw_bench::figures_dir().join("table1.csv");
    if table.write_csv(&path).is_ok() {
        println!("[data written to {}]", path.display());
    }
}
