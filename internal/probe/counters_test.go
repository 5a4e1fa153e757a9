package probe

import (
	"reflect"
	"testing"
)

// distinctCounters sets field i of a CellCounters to (i+1)*scale plus a
// fraction on the float field, so every field holds a different value and a
// counter missing from the field list Add and Sub share cannot go unnoticed.
func distinctCounters(t *testing.T, scale int64) CellCounters {
	t.Helper()
	var c CellCounters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(i+1) * scale)
		case reflect.Float64:
			f.SetFloat(float64(int64(i+1)*scale) + 0.25)
		default:
			t.Fatalf("field %s has kind %v, which Add and Sub do not handle", v.Type().Field(i).Name, f.Kind())
		}
	}
	return c
}

func TestCellCountersAddSub(t *testing.T) {
	a, b := distinctCounters(t, 1), distinctCounters(t, 1000)
	sum := a.Add(b)
	av, bv, sv := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		switch sv.Field(i).Kind() {
		case reflect.Int64:
			if got, want := sv.Field(i).Int(), av.Field(i).Int()+bv.Field(i).Int(); got != want {
				t.Errorf("Add: %s = %d, want %d", name, got, want)
			}
		case reflect.Float64:
			if got, want := sv.Field(i).Float(), av.Field(i).Float()+bv.Field(i).Float(); got != want {
				t.Errorf("Add: %s = %v, want %v", name, got, want)
			}
		}
	}
	if back := sum.Sub(b); back != a {
		t.Errorf("a.Add(b).Sub(b) = %+v, want %+v", back, a)
	}
}
