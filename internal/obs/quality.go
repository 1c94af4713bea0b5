package obs

import "partminer/internal/partition"

// PartitionQualityGauges registers the partition-quality gauges on r
// under its prefix: <prefix>partition_edge_cut_ratio,
// <prefix>partition_replication_factor, <prefix>partition_unit_balance,
// and <prefix>partition_units. get is read at exposition time and may
// return nil (all gauges read 0) until a mining round has published a
// quality; the server points it at the current snapshot so scrapes always
// describe the partitioning actually being served.
func PartitionQualityGauges(r *Registry, get func() *partition.Quality) {
	gauge := func(suffix, help string, read func(q *partition.Quality) float64) {
		r.GaugeFunc(r.prefix+"partition_"+suffix, help, func() float64 {
			if q := get(); q != nil {
				return read(q)
			}
			return 0
		})
	}
	gauge("edge_cut_ratio", "Connective edges across all splits over total edges.",
		func(q *partition.Quality) float64 { return q.EdgeCutRatio })
	gauge("replication_factor", "Unit vertices summed over units, over root vertices.",
		func(q *partition.Quality) float64 { return q.ReplicationFactor })
	gauge("unit_balance", "Max unit edge count over mean unit edge count (1 = balanced).",
		func(q *partition.Quality) float64 { return q.Balance })
	gauge("units", "Number of partition units (K).",
		func(q *partition.Quality) float64 { return float64(q.K) })
}
