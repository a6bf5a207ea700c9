// Package tpcds is the TPC-DS-like benchmark substrate of the evaluation
// (§7.1–§7.5). It reproduces, at laptop scale, the structural properties
// the paper's experiments depend on: a decision-support star/snowflake
// schema with seven fact tables and a dozen-plus dimensions, skewed and
// correlated column values, and two query workloads — WLc (complex,
// default 131 queries, free-form constants whose grids overwhelm
// DataSynth) and WLs (simple, quantized constants that keep DataSynth's
// grids solvable).
//
// Everything is integer-valued: the paper's anonymizer maps client
// datatypes to numbers before the vendor pipeline runs (§3.1), so the
// vendor-side substrate is numeric by construction.
package tpcds

import (
	"fmt"
	"math"

	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/workload"
)

// Config parameterizes the substrate.
type Config struct {
	// SF is the scale factor: SF=1 yields ≈1M total tuples. The paper's
	// 100 GB instance corresponds to a few hundred SF; the pipeline under
	// test (summary construction) is scale-free, so experiments use small
	// SF for data-bound steps and scale CC counts for the rest.
	SF float64
	// Seed drives data and workload generation.
	Seed int64
}

func (c Config) sf() float64 {
	if c.SF <= 0 {
		return 1
	}
	return c.SF
}

type colDef struct {
	name     string
	min, max int64
	dist     byte    // 'u' uniform, 'z' zipf, 'n' normal-ish
	p        float64 // zipf exponent
}

type tabDef struct {
	name string
	rows float64 // rows at SF=1
	cols []colDef
	fks  []schema.ForeignKey
}

func fk(col, ref string) schema.ForeignKey { return schema.ForeignKey{FKCol: col, Ref: ref} }

// defs lists the full substrate schema. Fact tables reference each
// dimension at most once (the preprocessor's view model requires a single
// join role per referenced relation).
var defs = []tabDef{
	{name: "date_dim", rows: 2190, cols: []colDef{
		{"d_year", 1998, 2003, 'u', 0}, {"d_moy", 1, 12, 'u', 0},
		{"d_dom", 1, 31, 'u', 0}, {"d_qoy", 1, 4, 'u', 0},
	}},
	{name: "time_dim", rows: 1440, cols: []colDef{
		{"t_hour", 0, 23, 'u', 0}, {"t_shift", 0, 2, 'u', 0},
	}},
	{name: "item", rows: 3600, cols: []colDef{
		{"i_category", 0, 9, 'z', 0.6}, {"i_class", 0, 49, 'z', 0.5},
		{"i_brand", 0, 499, 'z', 0.7}, {"i_current_price", 1, 10000, 'n', 0},
		{"i_manager_id", 0, 99, 'u', 0},
	}},
	{name: "customer", rows: 20000, cols: []colDef{
		{"c_birth_year", 1920, 2000, 'n', 0}, {"c_salutation", 0, 6, 'u', 0},
		{"c_preferred", 0, 1, 'u', 0},
	}},
	{name: "customer_address", rows: 10000, cols: []colDef{
		{"ca_state", 0, 49, 'z', 0.5}, {"ca_gmt_offset", -12, 12, 'u', 0},
		{"ca_zip", 0, 99999, 'u', 0},
	}},
	{name: "customer_demographics", rows: 7200, cols: []colDef{
		{"cd_gender", 0, 1, 'u', 0}, {"cd_marital_status", 0, 4, 'u', 0},
		{"cd_education", 0, 6, 'z', 0.4}, {"cd_dep_count", 0, 6, 'u', 0},
	}},
	{name: "household_demographics", rows: 1440, cols: []colDef{
		{"hd_income_band", 0, 19, 'u', 0}, {"hd_dep_count", 0, 9, 'z', 0.5},
		{"hd_vehicle_count", 0, 4, 'u', 0},
	}},
	{name: "store", rows: 60, cols: []colDef{
		{"s_number_employees", 50, 300, 'u', 0},
		{"s_floor_space", 10000, 1000000, 'u', 0},
		{"s_market_id", 0, 9, 'u', 0},
	}},
	{name: "warehouse", rows: 10, cols: []colDef{
		{"w_warehouse_sq_ft", 10000, 1000000, 'u', 0},
		{"w_gmt_offset", -12, 12, 'u', 0},
	}},
	{name: "promotion", rows: 300, cols: []colDef{
		{"p_cost", 0, 1000, 'z', 0.5}, {"p_channel_tv", 0, 1, 'u', 0},
		{"p_response_target", 0, 9, 'u', 0},
	}},
	{name: "web_site", rows: 12, cols: []colDef{
		{"web_mkt_id", 0, 9, 'u', 0}, {"web_tax_percentage", 0, 12, 'u', 0},
	}},
	{name: "call_center", rows: 8, cols: []colDef{
		{"cc_employees", 10, 1000, 'z', 0.5}, {"cc_mkt_id", 0, 9, 'u', 0},
	}},
	{name: "ship_mode", rows: 20, cols: []colDef{
		{"sm_type", 0, 5, 'u', 0}, {"sm_contract", 0, 99, 'u', 0},
	}},
	{name: "reason", rows: 35, cols: []colDef{
		{"r_reason_type", 0, 34, 'u', 0},
	}},
	{name: "catalog_page", rows: 240, cols: []colDef{
		{"cp_catalog_number", 1, 100, 'u', 0}, {"cp_type", 0, 2, 'u', 0},
	}},
	{name: "store_sales", rows: 288000, cols: []colDef{
		{"ss_quantity", 1, 100, 'z', 0.4}, {"ss_wholesale_cost", 1, 10000, 'n', 0},
		{"ss_list_price", 1, 20000, 'n', 0}, {"ss_sales_price", 0, 20000, 'n', 0},
		{"ss_ext_discount_amt", 0, 10000, 'z', 0.8},
	}, fks: []schema.ForeignKey{
		fk("ss_item_sk", "item"), fk("ss_customer_sk", "customer"),
		fk("ss_cdemo_sk", "customer_demographics"), fk("ss_hdemo_sk", "household_demographics"),
		fk("ss_addr_sk", "customer_address"), fk("ss_store_sk", "store"),
		fk("ss_promo_sk", "promotion"), fk("ss_sold_date_sk", "date_dim"),
		fk("ss_sold_time_sk", "time_dim"),
	}},
	{name: "catalog_sales", rows: 144000, cols: []colDef{
		{"cs_quantity", 1, 100, 'z', 0.4}, {"cs_wholesale_cost", 1, 10000, 'n', 0},
		{"cs_list_price", 1, 20000, 'n', 0}, {"cs_coupon_amt", 0, 5000, 'z', 0.8},
	}, fks: []schema.ForeignKey{
		fk("cs_item_sk", "item"), fk("cs_customer_sk", "customer"),
		fk("cs_cdemo_sk", "customer_demographics"), fk("cs_addr_sk", "customer_address"),
		fk("cs_call_center_sk", "call_center"), fk("cs_catalog_page_sk", "catalog_page"),
		fk("cs_ship_mode_sk", "ship_mode"), fk("cs_warehouse_sk", "warehouse"),
		fk("cs_promo_sk", "promotion"), fk("cs_sold_date_sk", "date_dim"),
	}},
	{name: "web_sales", rows: 72000, cols: []colDef{
		{"ws_quantity", 1, 100, 'z', 0.4}, {"ws_sales_price", 0, 20000, 'n', 0},
		{"ws_net_profit", -5000, 10000, 'n', 0},
	}, fks: []schema.ForeignKey{
		fk("ws_item_sk", "item"), fk("ws_customer_sk", "customer"),
		fk("ws_addr_sk", "customer_address"), fk("ws_web_site_sk", "web_site"),
		fk("ws_ship_mode_sk", "ship_mode"), fk("ws_warehouse_sk", "warehouse"),
		fk("ws_promo_sk", "promotion"), fk("ws_sold_date_sk", "date_dim"),
	}},
	{name: "store_returns", rows: 29000, cols: []colDef{
		{"sr_return_quantity", 1, 100, 'z', 0.5}, {"sr_return_amt", 0, 20000, 'n', 0},
		{"sr_fee", 0, 100, 'u', 0},
	}, fks: []schema.ForeignKey{
		fk("sr_item_sk", "item"), fk("sr_customer_sk", "customer"),
		fk("sr_store_sk", "store"), fk("sr_reason_sk", "reason"),
		fk("sr_returned_date_sk", "date_dim"),
	}},
	{name: "catalog_returns", rows: 14400, cols: []colDef{
		{"cr_return_quantity", 1, 100, 'z', 0.5}, {"cr_return_amount", 0, 20000, 'n', 0},
	}, fks: []schema.ForeignKey{
		fk("cr_item_sk", "item"), fk("cr_customer_sk", "customer"),
		fk("cr_call_center_sk", "call_center"), fk("cr_reason_sk", "reason"),
		fk("cr_ship_mode_sk", "ship_mode"), fk("cr_returned_date_sk", "date_dim"),
	}},
	{name: "web_returns", rows: 7200, cols: []colDef{
		{"wr_return_quantity", 1, 100, 'z', 0.5}, {"wr_return_amt", 0, 20000, 'n', 0},
	}, fks: []schema.ForeignKey{
		fk("wr_item_sk", "item"), fk("wr_customer_sk", "customer"),
		fk("wr_web_site_sk", "web_site"), fk("wr_reason_sk", "reason"),
	}},
	{name: "inventory", rows: 399000, cols: []colDef{
		{"inv_quantity_on_hand", 0, 1000, 'u', 0},
	}, fks: []schema.ForeignKey{
		fk("inv_item_sk", "item"), fk("inv_warehouse_sk", "warehouse"),
		fk("inv_date_sk", "date_dim"),
	}},
}

// dimScale lists tables whose cardinality scales sub-linearly with SF
// (dimensions grow with the square root, as TPC-DS dimensions roughly do).
var dimNames = map[string]bool{
	"date_dim": true, "time_dim": true, "item": true, "customer": true,
	"customer_address": true, "customer_demographics": true,
	"household_demographics": true, "store": true, "warehouse": true,
	"promotion": true, "web_site": true, "call_center": true,
	"ship_mode": true, "reason": true, "catalog_page": true,
}

// FactTables lists the fact tables largest-first (the Fig. 15 candidates).
func FactTables() []string {
	return []string{"inventory", "store_sales", "catalog_sales", "web_sales", "store_returns", "catalog_returns", "web_returns"}
}

// Schema builds the substrate schema with row counts at the configured
// scale factor.
func Schema(cfg Config) *schema.Schema {
	sf := cfg.sf()
	tables := make([]*schema.Table, 0, len(defs))
	for _, d := range defs {
		t := &schema.Table{Name: d.name, FKs: append([]schema.ForeignKey(nil), d.fks...)}
		for _, c := range d.cols {
			t.Cols = append(t.Cols, schema.Column{Name: c.name, Min: c.min, Max: c.max})
		}
		scale := sf
		if dimNames[d.name] {
			scale = math.Sqrt(sf)
			if scale > sf && sf >= 1 {
				scale = sf
			}
		}
		rows := int64(math.Round(d.rows * scale))
		if rows < 4 {
			rows = 4
		}
		t.RowCount = rows
		tables = append(tables, t)
	}
	return schema.MustNew(tables...)
}

// GenerateDB populates a client database: every column follows its
// declared distribution and every FK lands uniformly on a valid referenced
// pk, so the client database satisfies referential integrity exactly.
func GenerateDB(s *schema.Schema, cfg Config) (*engine.Database, error) {
	defByName := map[string]tabDef{}
	for _, d := range defs {
		defByName[d.name] = d
	}
	for _, t := range s.Tables {
		if _, ok := defByName[t.Name]; !ok {
			return nil, fmt.Errorf("tpcds: unknown table %s", t.Name)
		}
	}
	g := workload.NewGen(cfg.Seed)
	return workload.Populate(s, func(t *schema.Table, c int) int64 {
		cd := defByName[t.Name].cols[c]
		return g.Draw(cd.dist, cd.p, t.Cols[c].Min, t.Cols[c].Max)
	}, func(ref *schema.Table) int64 { return g.Uniform(1, ref.RowCount) })
}
