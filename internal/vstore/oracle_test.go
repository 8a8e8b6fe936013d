package vstore

import (
	"fmt"
	"sort"
	"strings"

	"orochi/internal/sqlmini"
)

// MigrateFinalSQLText is the migration MigrateFinal used before it built
// tables directly: print every live row as an INSERT statement and run
// the statements on a fresh database. Kept as the reference the direct
// build is compared against (exported to the external test package,
// which can import the packages that serve and audit a workload).
//
// It re-derives each table's auto-increment counter from the surviving
// rows (max id + 1), which is the defect the direct build fixes; the two
// agree whenever no table has lost its highest id.
func MigrateFinalSQLText(v *VersionedDB) (*sqlmini.DB, error) {
	db := sqlmini.NewDB()
	names := make([]string, 0, len(v.tables))
	for n := range v.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		vt := v.tables[n]
		var defs []string
		for _, c := range vt.cols {
			d := c.Name + " " + c.Type.String()
			if c.AutoInc {
				d += " AUTOINCREMENT"
			}
			defs = append(defs, d)
		}
		if _, err := db.Exec("CREATE TABLE " + vt.name + " (" + strings.Join(defs, ", ") + ")"); err != nil {
			return nil, err
		}
		for si := range vt.slots {
			row := vt.slots[si].at(tsLive)
			if row == nil {
				continue
			}
			cols := make([]string, len(vt.cols))
			vals := make([]string, len(vt.cols))
			for i, c := range vt.cols {
				cols[i] = c.Name
				vals[i] = sqlLiteral(row.Vals[i])
			}
			stmt := "INSERT INTO " + vt.name + " (" + strings.Join(cols, ", ") + ") VALUES (" + strings.Join(vals, ", ") + ")"
			if _, err := db.Exec(stmt); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

func sqlLiteral(v sqlmini.Val) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		return fmt.Sprintf("%g", x)
	case string:
		return sqlmini.Quote(x)
	default:
		return "NULL"
	}
}
