package mem

import "testing"

// BenchmarkDomainAccess times one Domain.Access by CPU 0 per access class,
// on the 4-CPU SMP and the 8-CPU Altix memory systems:
//   - ldf-l2-hit: an FP load (L1D bypassed) of a line CPU 0 holds;
//   - store-upgrade: a store to a line every other CPU shares, an
//     invalidating upgrade that snoops all of them;
//   - cold-fill: a load of a line no cache holds, a fill from memory.
//
// The clock follows each access's completion, as a blocking CPU's would.
func BenchmarkDomainAccess(b *testing.B) {
	for _, shape := range []struct {
		name string
		cfg  Config
	}{
		{"smp4", Itanium2SMP(4)},
		{"altix8", AltixNUMA(8)},
	} {
		setup := func(b *testing.B) (*Domain, *Memory) {
			m := NewMemory(shape.cfg.MemBytes, shape.cfg.PageSize)
			d, err := NewDomain(shape.cfg, m)
			if err != nil {
				b.Fatal(err)
			}
			return d, m
		}
		b.Run(shape.name+"/ldf-l2-hit", func(b *testing.B) {
			d, m := setup(b)
			line := m.MustAlloc("hot", 128, 128)
			var res AccessResult
			d.Access(0, line, LoadFP, 0, &res)
			now := res.Done
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Access(0, line, LoadFP, now, &res)
				now = res.Done
			}
		})
		b.Run(shape.name+"/store-upgrade", func(b *testing.B) {
			d, m := setup(b)
			const lines = 1024 // 128 KB: resident in every L2
			base := m.MustAlloc("shared", lines*128, 128)
			var res AccessResult
			now := int64(0)
			share := func() {
				for l := uint64(0); l < lines; l++ {
					for cpu := 0; cpu < shape.cfg.NumCPUs; cpu++ {
						d.Access(cpu, base+l*128, LoadFP, now, &res)
						now = res.Done
					}
				}
			}
			share()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%lines == 0 && i > 0 {
					b.StopTimer()
					share()
					b.StartTimer()
				}
				d.Access(0, base+uint64(i%lines)*128, Store, now, &res)
				now = res.Done
			}
		})
		b.Run(shape.name+"/cold-fill", func(b *testing.B) {
			d, m := setup(b)
			base := m.MustAlloc("cold", m.Size()/2, 128)
			lines := m.Size() / 2 / 128
			var res AccessResult
			now := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Access(0, base+uint64(i)%lines*128, LoadFP, now, &res)
				now = res.Done
			}
		})
	}
}
