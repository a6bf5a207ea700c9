package hydra

// Importing hydra registers its database/sql driver, so regenerated
// data can be queried with the standard library alone:
//
//	db, err := sql.Open(hydra.DriverName, "summary://tpcds.summary.json")
//	rows, err := db.Query("SELECT ss_item_sk, ss_quantity FROM store_sales WHERE ss_quantity >= 90")
//
// The DSN picks the backend exactly like `hydra scan` flags do —
// summary://path (in-process regeneration), dir://path (materialized
// part files), remote://host:port,host:port (a serve fleet) — with an
// optional ?batch=N parameter (FK spread is the summary's). Statements are
// single-table SELECTs; the projection and the WHERE conjunction (the
// ParseWhere grammar) both push down to the backend, so a selective
// query on a fleet moves only its matching rows over the network. The
// driver is read-only and row values are always int64.
import _ "github.com/dsl-repro/hydra/internal/sqldriver"

// DriverName is the database/sql driver name hydra registers; pass it
// to sql.Open together with a summary://, dir://, or remote:// DSN.
const DriverName = "hydra"
