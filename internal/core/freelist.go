package core

// freeSizes bounds the image sizes whose entries are recycled — a structure
// has a node, a word and perhaps a blob; entries of any further size go to
// the garbage collector.
const freeSizes = 8

// sizedFree recycles the entries that own a unit image — the overlay's and
// the DRAM cache's — one list per image size, so the entry taken for a unit
// brings a buffer that fits it whatever sizes the owner mixes. An entry gets
// here only out of its owner's map and one is made only when its size's list
// is empty, so a list never holds more than the owner's high-water mark.
type sizedFree[E any] struct {
	limit int // entries kept per size; 0: no limit
	sizes []sizeList[E]
}

type sizeList[E any] struct {
	size int
	ents []*E
}

// list returns the list of size-byte images, if one is kept.
func (f *sizedFree[E]) list(size int) *sizeList[E] {
	for i := range f.sizes {
		if f.sizes[i].size == size {
			return &f.sizes[i]
		}
	}
	return nil
}

// take pops a recycled entry whose image is size bytes; nil when none waits.
func (f *sizedFree[E]) take(size int) *E {
	l := f.list(size)
	if l == nil || len(l.ents) == 0 {
		return nil
	}
	e := l.ents[len(l.ents)-1]
	l.ents = l.ents[:len(l.ents)-1]
	return e
}

// give keeps e, whose image is size bytes, for the next take of that size.
func (f *sizedFree[E]) give(size int, e *E) {
	l := f.list(size)
	if l == nil {
		if len(f.sizes) == freeSizes {
			return
		}
		f.sizes = append(f.sizes, sizeList[E]{size: size})
		l = &f.sizes[len(f.sizes)-1]
	}
	if f.limit == 0 || len(l.ents) < f.limit {
		l.ents = append(l.ents, e)
	}
}
