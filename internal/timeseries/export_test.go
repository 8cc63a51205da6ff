package timeseries

// Visited returns how many series the database's selector queries have
// examined so far.
func Visited(db *DB) uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.visited
}
